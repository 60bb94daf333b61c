package htc

import (
	"fmt"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// Dense computes a fully connected layer out = W*flatten(in) + bias as one
// packed matrix-vector product. The flatten order is CHW row-major, matching
// the plaintext reference.
//
// The input occupies a span of m slots at the bottom of its batch lane and
// the rest of the lane is zero (the htc invariant), so a fold of R right
// rotations by m (foldStrided) leaves R copies of it at slots r*m. One
// plaintext then carries R neurons' weights, one neuron per copy; the
// products, summed over the input ciphertexts — one sum per group, all in
// one unrotated RotSum — are folded along the tensor's own W, H and channel
// axes, which brings copy r's dot product to slot r*m + Offset without
// reading outside the copy. One mask keeps those R slots, as the weight of
// the last fold's sum. The G = outDim/R such groups are rotated to columns
// q = 0..G-1 and added, so neuron r*G + q ends at slot r*m + q: the output
// is a dense H = R by W = G grid with RowStride m, and any kernel — another
// Dense included — consumes it as it stands. The grid follows from the
// input's span, so two Dense outputs of one size need not share it; the
// executor moves the operands of an Add or Concat onto one grid (regrid)
// when they differ.
func Dense(b hisa.RunsBackend, in *CipherTensor, weights, bias *tensor.Tensor, sc Scales, opts ExecOptions) *CipherTensor {
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

	// The copies land in slots that were zero.
	copies := make([]hisa.Ciphertext, len(in.CTs))
	for g, c := range in.CTs {
		copies[g] = foldStrided(b, c, R, -m, nil)
	}

	// One-hot at every copy's origin in every lane — column 0 of the output
	// grid, moved to the input's Offset: after the folds the dot products
	// sit there and everything else is partial sums.
	origins := out
	origins.W, origins.Offset = 1, in.Offset
	mask := b.EncodeRuns(origins.channels(0, uniform(1)), sc.Pm)

	products := perOutput(b, G, func(q int) []hisa.Term {
		terms := make([]hisa.Term, len(copies))
		for g := range copies {
			// Neuron r*G + q's weights over copy r: one run per slot.
			wv := in.constant(func(rs []hisa.Run) []hisa.Run {
				for r := 0; r < R; r++ {
					in.forEach(g, func(ch, y, x, slot int) {
						w := weights.At(r*G+q, (ch*in.H+y)*in.W+x)
						rs = append(rs, hisa.Run{Start: int32(r*m + slot), Len: 1, Value: w})
					})
				}
				return rs
			})
			terms[g] = hisa.Term{Src: g, Plain: b.EncodeRuns(wv, sc.Pw)}
		}
		return terms
	})
	groups := b.RotSum(copies, products, nil)
	for q, acc := range groups {
		acc = tryRescale(b, acc, sc.Pc)
		acc = opts.foldMasked(b, acc, mask, [2]int{in.W, in.ColStride}, [2]int{in.H, in.RowStride}, [2]int{chIn, in.ChanStride})
		groups[q] = tryRescale(b, acc, sc.Pc)
	}

	// Place every group's dot products at its output column: one sum of
	// rotations, in group order.
	place := make([]hisa.Term, G)
	for q := range place {
		place[q] = hisa.Term{Src: q, Rot: in.Offset - q}
	}
	acc := b.RotSum(groups, [][]hisa.Term{place}, nil)[0]

	if bias != nil {
		bv := out.constant(func(rs []hisa.Run) []hisa.Run {
			for o, v := range bias.Data {
				rs = append(rs, hisa.Run{Start: int32(o/G*m + o%G), Len: 1, Value: v})
			}
			return rs
		})
		acc = addVecBoth(b, in.Complex, acc, bv)
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
// neurons per plaintext: the fold making r copies, per input ciphertext; the
// three axis folds, per group; and one placement rotation per group, less
// the group whose column is already the origin's.
func denseRotations(in *CipherTensor, outDim, r int) int {
	g := outDim / r
	fold := foldRotations(in.W) + foldRotations(in.H) + foldRotations(min(in.C, in.CPerCT))
	place := g
	if in.Offset < g {
		place--
	}
	return len(in.CTs)*foldRotations(r) + g*fold + place
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
func regrid(b hisa.RunsBackend, t, like *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
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
	masks := map[move][]hisa.Run{} // lane 0's, one run per element
	for i := 0; i < size; i++ {
		sch, si := i/(t.H*t.W), i%(t.H*t.W)
		dch, di := i/grid, i%grid
		from := t.pos(sch%t.CPerCT, si/t.W, si%t.W)
		to := out.pos(dch%out.CPerCT, di/out.W, di%out.W)
		mv := move{sch / t.CPerCT, dch / out.CPerCT, to - from}
		if masks[mv] == nil {
			moves = append(moves, mv)
		}
		masks[mv] = append(masks[mv], hisa.Run{Start: int32(from), Len: 1, Value: 1})
	}
	for _, mv := range moves {
		mask := t.constant(func(rs []hisa.Run) []hisa.Run { return append(rs, masks[mv]...) })
		c := opts.masked(b, t.CTs[mv.src], b.EncodeRuns(mask, sc.Pm))
		out.CTs[mv.dst] = accumulate(b, out.CTs[mv.dst], rotateRight(b, tryRescale(b, c, sc.Pc), mv.by))
	}
	out.validate(b.Slots())
	return &out
}
