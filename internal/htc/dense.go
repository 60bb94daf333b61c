package htc

import (
	"fmt"
	"math/bits"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// Dense computes a fully connected layer out = W*flatten(in) + bias as one
// packed matrix-vector product. The flatten order is CHW row-major, matching
// the plaintext reference.
//
// The input occupies a span of m slots at the bottom of its batch lane and
// the rest of the lane is zero (the htc invariant), so log2 R rotate-right-
// and-add steps leave R copies of it at slots r*m. One plaintext then carries
// R neurons' weights, one neuron per copy; the products are summed over the
// input ciphertexts and folded along the tensor's own W, H and channel axes
// (foldStrided), which brings copy r's dot product to slot r*m + Offset
// without reading outside the copy. One mask keeps those R slots. The
// G = outDim/R such groups are rotated to columns q = 0..G-1 and added, so
// neuron r*G + q ends at slot r*m + q: the output is a dense H = R by W = G
// grid with RowStride m, and any kernel — another Dense included — consumes
// it as it stands. The grid follows from the input's span, so two Dense
// outputs of one size need not share it; the executor moves the operands of
// an Add or Concat onto one grid (regrid) when they differ.
//
// Input ciphertexts are replicated and neuron groups computed by
// opts.Workers goroutines, and the groups are added in serial order, so the
// result is bit-identical to a serial run.
func Dense(b hisa.Backend, in *CipherTensor, weights, bias *tensor.Tensor, sc Scales, opts ExecOptions) *CipherTensor {
	inSize := in.C * in.H * in.W
	if weights.Rank() != 2 || weights.Shape[1] != inSize {
		panic(fmt.Sprintf("htc: dense weights %v incompatible with input size %d", weights.Shape, inSize))
	}
	outDim := weights.Shape[0]
	ls := in.BatchStride
	if outDim > ls {
		panic("htc: dense output exceeds batch-lane slot count")
	}

	// The span every copy occupies: a power of two, like the lane stride, so
	// the copies tile the lane.
	chIn := min(in.C, in.CPerCT)
	m := min(nextPow2(in.pos(chIn-1, in.H-1, in.W-1)+1), ls)
	R := denseCopies(in, outDim, m, ls)
	G := outDim / R

	out := CipherTensor{
		Layout: in.Layout, C: 1, H: R, W: G,
		Offset: 0, RowStride: m, ColStride: 1,
		ChanStride: ls, CPerCT: 1,
		B: in.B, BatchStride: in.BatchStride,
		Complex: in.Complex,
	}

	// Each step doubles the copies; the slots it rotates data into were zero.
	copies := make([]hisa.Ciphertext, len(in.CTs))
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		c := in.CTs[g]
		for s := m; s < nextPow2(R)*m; s <<= 1 {
			c = b.Add(c, b.RotRight(c, s))
		}
		copies[g] = c
	})

	// One-hot at every copy's origin in every lane — column 0 of the output
	// grid, moved to the input's Offset: after the folds the dot products
	// sit there and everything else is partial sums.
	origins := out
	origins.W, origins.Offset = 1, in.Offset
	mask := opts.constant(b, perChannelVector(&origins, 0, b.Slots(), uniform(1)), sc.Pm)

	groups := make([]hisa.Ciphertext, G)
	parallelFor(opts.workers(), G, func(q int) {
		var acc hisa.Ciphertext
		for g := range copies {
			wv := make([]float64, b.Slots())
			in.forEach(g, func(ch, y, x, slot int) {
				for r := 0; r < R; r++ {
					wv[r*m+slot] = weights.At(r*G+q, (ch*in.H+y)*in.W+x)
				}
			})
			acc = accumulate(b, acc, b.MulPlain(copies[g], opts.constant(b, in.replicate(wv), sc.Pw).at(copies[g])))
		}
		acc = tryRescale(b, acc, sc.Pc)
		acc = foldStrided(b, acc, in.W, in.ColStride)
		acc = foldStrided(b, acc, in.H, in.RowStride)
		acc = foldStrided(b, acc, chIn, in.ChanStride)
		groups[q] = tryRescale(b, b.MulPlain(acc, mask.at(acc)), sc.Pc)
	})

	// Place every group's dot products at its output column: one sum of
	// rotations, in group order.
	place := make([]hisa.Term, G)
	for q := range place {
		place[q] = hisa.Term{Src: q, Rot: in.Offset - q}
	}
	acc := b.RotSum(groups, [][]hisa.Term{place}, opts.each)[0]
	for _, g := range groups {
		b.Free(g)
	}

	if bias != nil {
		bv := make([]float64, b.Slots())
		for o, v := range bias.Data {
			bv[o/G*m+o%G] = v
		}
		acc = addVecBoth(b, opts, in.Complex, acc, out.replicate(bv))
	}
	out.CTs = []hisa.Ciphertext{acc}
	out.validate(b.Slots())
	return &out
}

// denseCopies chooses R, the number of neurons a Dense packs per plaintext:
// the R with the fewest rotations (denseRotations) among the divisors of
// outDim — so the R by outDim/R output grid has no ragged row — whose copies
// fit the lane and whose rows fit a copy. It is not a knob: the kernel knows
// every term of its own rotation count. Ties go to the larger R, which
// encodes and multiplies fewer plaintexts. R = 1 is always admissible: one
// neuron per ciphertext, the output a single row.
func denseCopies(in *CipherTensor, outDim, m, ls int) int {
	best, bestRot := 1, denseRotations(in, outDim, 1)
	for r := 2; r <= outDim && r*m <= ls; r++ {
		if outDim%r != 0 || outDim/r > m {
			continue
		}
		if rot := denseRotations(in, outDim, r); rot <= bestRot {
			best, bestRot = r, rot
		}
	}
	return best
}

// denseRotations is the number of rotations Dense issues when it packs r
// neurons per plaintext: log2 of the copies made, per input ciphertext; the
// three axis folds, per group; and one placement rotation per group, less
// the group whose column is already the origin's.
func denseRotations(in *CipherTensor, outDim, r int) int {
	g := outDim / r
	fold := foldRotations(in.W) + foldRotations(in.H) + foldRotations(min(in.C, in.CPerCT))
	place := g
	if in.Offset < g {
		place--
	}
	return len(in.CTs)*bits.Len(uint(r-1)) + g*fold + place
}

// sameGrid reports whether x and y keep a channel's element (y, x) at the
// same slot, so that they add or concatenate as they stand.
func sameGrid(x, y *CipherTensor) bool {
	return x.H == y.H && x.W == y.W && x.Offset == y.Offset &&
		x.RowStride == y.RowStride && x.ColStride == y.ColStride &&
		x.CPerCT == y.CPerCT && (x.CPerCT == 1 || x.ChanStride == y.ChanStride) &&
		x.B == y.B && x.BatchStride == y.BatchStride && x.Complex == y.Complex
}

// regrid moves t's elements, in flatten (CHW row-major) order, onto like's
// slot grid: the result has like's geometry and as many channels of like's
// H by W as t's elements fill. Elements that share source ciphertext,
// destination ciphertext and displacement travel together: one mask, one
// rescale and one rotation per such move, one multiplicative level in all.
func regrid(b hisa.Backend, t, like *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
	size, grid := t.C*t.H*t.W, like.H*like.W
	if size%grid != 0 || t.B != like.B || t.BatchStride != like.BatchStride || t.Complex != like.Complex {
		panic(fmt.Sprintf("htc: no common grid for a %dx%dx%d and a %dx%dx%d tensor; insert a layout conversion",
			t.C, t.H, t.W, like.C, like.H, like.W))
	}
	out := metaClone(like)
	out.C = size / grid
	out.CTs = make([]hisa.Ciphertext, (out.C+out.CPerCT-1)/out.CPerCT)

	type move struct{ src, dst, by int }
	var moves []move
	masks := map[move][]float64{}
	for i := 0; i < size; i++ {
		sch, si := i/(t.H*t.W), i%(t.H*t.W)
		dch, di := i/grid, i%grid
		from := t.pos(sch%t.CPerCT, si/t.W, si%t.W)
		to := out.pos(dch%out.CPerCT, di/out.W, di%out.W)
		mv := move{sch / t.CPerCT, dch / out.CPerCT, to - from}
		if masks[mv] == nil {
			masks[mv] = make([]float64, b.Slots())
			moves = append(moves, mv)
		}
		masks[mv][from] = 1
	}
	for _, mv := range moves {
		t.replicate(masks[mv])
	}

	moved := make([]hisa.Ciphertext, len(moves))
	parallelFor(opts.workers(), len(moves), func(i int) {
		mv := moves[i]
		c := b.MulPlain(t.CTs[mv.src], opts.constant(b, masks[mv], sc.Pm).at(t.CTs[mv.src]))
		moved[i] = rotateRight(b, tryRescale(b, c, sc.Pc), mv.by)
	})
	// Fold in serial element order for a bit-identical result.
	for i, mv := range moves {
		out.CTs[mv.dst] = accumulate(b, out.CTs[mv.dst], moved[i])
	}
	out.validate(b.Slots())
	return &out
}
