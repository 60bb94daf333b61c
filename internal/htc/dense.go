package htc

import (
	"cmp"
	"fmt"
	"slices"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// Dense computes a fully connected layer out = W*flatten(in) + bias as one
// packed matrix-vector product. The flatten order is CHW row-major, matching
// the plaintext reference.
//
// A Dense reads its input clean (cleanOutputs), so every slot of the lane
// that the input's valid positions leave free is zero: the gaps between its
// columns, rows and channels, and the room past its span. Dense puts R
// copies of the input there (densePack: a copies along one progression of
// displacements, b along another), with one sum of rotations per input
// ciphertext, or one per progression. One plaintext then carries R
// neurons' weights, one neuron per copy; the products, summed over the input
// ciphertexts — one sum per group, all in one unrotated RotSum — are folded
// along the tensor's own W, H and channel axes, which brings copy r's dot
// product to the copy's origin without reading outside the copy. One mask
// keeps those R slots, as the weight of the last fold's sum. The G =
// outDim/R such groups are rotated into place and added: the output is a
// dense H = b by W = a·G grid, group q holding columns q·a … q·a+a-1, and
// any kernel — another Dense included — consumes it as it stands. The grid
// follows from the input's geometry, so two Dense outputs of one size need
// not share it; the executor moves the operands of an Add or Concat onto one
// grid (regrid) when they differ.
func Dense(b hisa.RunsBackend, in *CipherTensor, weights, bias *tensor.Tensor, sc Scales, opts ExecOptions) *CipherTensor {
	inSize := in.C * in.H * in.W
	if weights.Rank() != 2 || weights.Shape[1] != inSize {
		panic(fmt.Sprintf("htc: dense weights %v incompatible with input size %d", weights.Shape, inSize))
	}
	outDim := weights.Shape[0]
	if outDim > in.BatchStride {
		panic("htc: dense output exceeds batch-lane slot count")
	}
	p := densePack(in, outDim, b.Slots())
	disp := p.displacements()
	in.checkCopies(disp)
	out := p.output(in)

	copies := make([]hisa.Ciphertext, len(in.CTs))
	for g, c := range in.CTs {
		copies[g] = p.replicate(b, c)
	}

	// One-hot at every copy's origin in every lane: after the folds the dot
	// products sit there and everything else is partial sums.
	mask := b.EncodeRuns(in.constant(func(rs []hisa.Run) []hisa.Run {
		for _, d := range disp {
			rs = append(rs, hisa.Run{Start: int32(in.Offset + d), Len: 1, Value: 1})
		}
		return rs
	}), sc.Pm)

	products := perOutput(b, p.g, func(q int) []hisa.Term {
		terms := make([]hisa.Term, len(copies))
		for g := range copies {
			// Each copy's neuron's weights over the copy: one run per slot.
			wv := in.constant(func(rs []hisa.Run) []hisa.Run {
				for r, d := range disp {
					n := p.neuron(r, q)
					in.forEach(g, func(ch, y, x, slot int) {
						w := weights.At(n, (ch*in.H+y)*in.W+x)
						rs = append(rs, hisa.Run{Start: int32(d + slot), Len: 1, Value: w})
					})
				}
				return rs
			})
			terms[g] = hisa.Term{Src: g, Plain: b.EncodeRuns(wv, sc.Pw)}
		}
		return terms
	})
	groups := b.RotSum(copies, products, nil)
	chIn := min(in.C, in.CPerCT)
	for q, acc := range groups {
		acc = tryRescale(b, acc, sc.Pc)
		acc = opts.foldMasked(b, acc, mask, [2]int{in.W, in.ColStride}, [2]int{in.H, in.RowStride}, [2]int{chIn, in.ChanStride})
		groups[q] = tryRescale(b, acc, sc.Pc)
	}

	// Move every group's dot products to its columns: one sum of rotations,
	// in group order, and none for a lone group already in place.
	acc := groups[0]
	if shifts := p.placement(in, &out); shifts != nil {
		place := make([]hisa.Term, p.g)
		for q, k := range shifts {
			place[q] = hisa.Term{Src: q, Rot: k}
		}
		acc = b.RotSum(groups, [][]hisa.Term{place}, nil)[0]
	}

	if bias != nil {
		bv := out.constant(func(rs []hisa.Run) []hisa.Run {
			for n, v := range bias.Data {
				rs = append(rs, hisa.Run{Start: int32(out.pos(0, n/out.W, n%out.W)), Len: 1, Value: v})
			}
			return rs
		})
		acc = addVecBoth(b, in.Complex, acc, bv)
	}
	out.CTs = []hisa.Ciphertext{acc}
	out.validate(b.Slots())
	return &out
}

// densePacking is where a packed Dense puts its R = a·b copies and G groups.
// Copy (i, j), i < a and j < b, sits i·cu + j·ru slots past the input, and
// computes neuron (j, q·a + i) of the output grid for group q: the a copies
// of a progression and the G groups share the grid's columns, cu apart, and
// the b copies of the other are its rows, ru apart. joint builds all the
// copies in one sum; otherwise each progression takes its own (along).
type densePacking struct {
	a, cu, b, ru, g int
	joint           bool
}

// displacements lists the copies' displacements, copy r = j·a + i first to
// last.
func (p densePacking) displacements() []int {
	ds := make([]int, 0, p.a*p.b)
	for j := 0; j < p.b; j++ {
		for i := 0; i < p.a; i++ {
			ds = append(ds, i*p.cu+j*p.ru)
		}
	}
	return ds
}

// neuron is the output neuron copy r computes for group q.
func (p densePacking) neuron(r, q int) int {
	return r/p.a*p.a*p.g + q*p.a + r%p.a
}

// replicate returns c plus its copies.
func (p densePacking) replicate(b hisa.Backend, c hisa.Ciphertext) hisa.Ciphertext {
	if p.joint {
		return copied(b, c, p.displacements())
	}
	return along(b, along(b, c, p.a, p.cu), p.b, p.ru)
}

// along returns c plus n-1 copies of it, unit slots apart: one sum of
// rotations, or the base-4 fold (foldStrided) where that prices less.
func along(b hisa.Backend, c hisa.Ciphertext, n, unit int) hisa.Ciphertext {
	if _, _, _, fold := alongCost(n); fold {
		return foldStrided(b, c, n, -unit, nil)
	}
	ds := make([]int, n)
	for i := range ds {
		ds[i] = i * unit
	}
	return copied(b, c, ds)
}

// alongCost is what along pays for n copies of one ciphertext, and whether
// it folds: a fold's sums, at six inner products each (denseCost.price),
// and rotations below one sum's.
func alongCost(n int) (sums, pairs, amounts int, fold bool) {
	if n <= 1 {
		return 0, 0, 0, false
	}
	if sums, pairs := foldSums(n), foldRotations(n); 6*sums+pairs < 6+n-1 {
		return sums, pairs, foldAmounts(n), true
	}
	return 1, n - 1, n - 1, false
}

// copied returns the sum of c moved right by each of ds, 0 among them: one
// sum of rotations.
func copied(b hisa.Backend, c hisa.Ciphertext, ds []int) hisa.Ciphertext {
	if len(ds) == 1 {
		return c
	}
	terms := make([]hisa.Term, len(ds))
	for i, d := range ds {
		terms[i] = hisa.Term{Rot: -d}
	}
	return b.RotSum([]hisa.Ciphertext{c}, [][]hisa.Term{terms}, nil)[0]
}

// output is the metadata of the grid the packing leaves, without
// ciphertexts: at the input's Offset when the grid fits the lane from
// there, so that group 0 stays where it is, otherwise at slot 0.
func (p densePacking) output(in *CipherTensor) CipherTensor {
	out := CipherTensor{
		Layout: in.Layout, C: 1, H: p.b, W: p.a * p.g,
		RowStride: p.ru, ColStride: p.cu,
		ChanStride: in.BatchStride, CPerCT: 1,
		B: in.B, BatchStride: in.BatchStride,
		Complex: in.Complex,
	}
	if in.Offset+out.pos(0, out.H-1, out.W-1) < in.BatchStride {
		out.Offset = in.Offset
	}
	return out
}

// placement is the rotation that moves each group's dot products, at its
// copies' origins, to its columns of out; nil when a lone group is there
// already.
func (p densePacking) placement(in, out *CipherTensor) []int {
	shift := in.Offset - out.Offset
	if p.g == 1 && shift == 0 {
		return nil
	}
	shifts := make([]int, p.g)
	for q := range shifts {
		shifts[q] = shift - q*p.a*p.cu
	}
	return shifts
}

// checkCopies panics unless ct's valid positions, displaced by each of ds,
// land on distinct slots of their lane: Dense's copies must neither overlap
// nor leave the lane.
func (ct *CipherTensor) checkCopies(ds []int) {
	used := make([]bool, ct.BatchStride)
	for _, d := range ds {
		ct.forEach(0, func(_, _, _, slot int) {
			switch s := slot + d; {
			case s >= ct.BatchStride:
				panic(fmt.Sprintf("htc: dense copy at +%d leaves its %d-slot batch lane", d, ct.BatchStride))
			case used[s]:
				panic(fmt.Sprintf("htc: dense copy at +%d overlaps another at slot %d", d, s))
			default:
				used[s] = true
			}
		})
	}
}

// denseCost is what a packed Dense's sums of rotations pay, as they run:
// the ModUps (a sum's rotated sources), the reductions (one per output: a
// ModDown, or the rescale the products take), the key inner products (a
// sum's rotated (source, amount) pairs: the metered rotations) and the sums
// that switch keys. amounts counts the rotations the replication and the
// placement add, each a rotation key every session generates and holds.
type denseCost struct {
	sums, ups, outs, pairs, amounts int
}

// price weighs a cost in key inner products. A ModUp costs about two and a
// ModDown four (RNS at N = 2^11, α = 6, level 5: 0.54, 0.98 and 0.24 ms); a
// key is priced by its size, slots/4096, so that the kernel gives up a sum
// to save keys only on rings where a key is megabytes.
func (c denseCost) price(slots int) float64 {
	return float64(2*c.ups+4*c.outs+c.pairs) + float64(c.amounts*slots)/4096
}

// denseSums is the closed form of what Dense pays under packing p: per input
// ciphertext its replication, per group its product and the folds along
// the three axes (foldStrided), and the placement.
func denseSums(in *CipherTensor, p densePacking) denseCost {
	var c denseCost
	n := len(in.CTs)
	add := func(sums, pairs, amounts int) {
		c.sums, c.ups, c.outs = c.sums+n*sums, c.ups+n*sums, c.outs+n*sums
		c.pairs, c.amounts = c.pairs+n*pairs, c.amounts+amounts
	}
	switch r := p.a * p.b; {
	case p.joint && r > 1:
		add(1, r-1, r-1)
	case !p.joint:
		for _, k := range []int{p.a, p.b} {
			sums, pairs, amounts, _ := alongCost(k)
			add(sums, pairs, amounts)
		}
	}
	c.outs += p.g
	for _, k := range []int{in.W, in.H, min(in.C, in.CPerCT)} {
		s := foldSums(k)
		c.sums, c.ups, c.outs = c.sums+p.g*s, c.ups+p.g*s, c.outs+p.g*s
		c.pairs += p.g * foldRotations(k)
	}
	out := p.output(in)
	if shifts := p.placement(in, &out); shifts != nil {
		rotated := 0
		for _, k := range shifts {
			if k != 0 {
				rotated++
			}
		}
		c.sums++
		c.ups += rotated
		c.outs++
		c.pairs += rotated
		c.amounts += rotated
	}
	return c
}

// densePack chooses where Dense puts its copies: the packing whose sums
// price the least (denseSums), then the one adding the fewest rotation keys,
// then the one with the most copies, which encodes and multiplies the
// fewest plaintexts. It is not a knob: the kernel knows every term of its
// own cost.
//
// The a copies fill one gap level of the input (denseGaps) and the b
// copies a level above it. R = a·b divides outDim, so the b by a·G output
// grid has no ragged row, and the grid's columns fit between its rows.
// R = 1 always fits: one neuron per ciphertext, the output a single row.
func densePack(in *CipherTensor, outDim, slots int) densePacking {
	gaps := newDenseGaps(in)
	best := densePacking{a: 1, cu: 1, b: 1, ru: outDim, g: outDim}
	bestCost := denseSums(in, best)
	top := len(gaps.axes) // the level past the span
	for la := -1; la <= top; la++ {
		for a := 1; a <= outDim; a++ {
			// Level -1 holds no copies (a = 1), any other at least two.
			if outDim%a != 0 || (la < 0) != (a == 1) {
				continue
			}
			for lb := -1; lb <= top; lb++ {
				if lb >= 0 && lb <= la {
					continue
				}
				for b := 1; a*b <= outDim; b++ {
					if outDim%(a*b) != 0 || (lb < 0) != (b == 1) {
						continue
					}
					cu, ru, ok := gaps.units(la, a, lb, b)
					p := densePacking{a: a, cu: max(cu, 1), b: b, ru: ru, g: outDim / (a * b)}
					width := p.a * p.g * p.cu
					if b == 1 {
						p.ru = width
					}
					if !ok || width > p.ru || width-p.cu+(p.b-1)*p.ru >= in.BatchStride {
						continue
					}
					for _, joint := range []bool{false, true} {
						p.joint = joint
						c := denseSums(in, p)
						if cp, bp := c.price(slots), bestCost.price(slots); cp < bp || cp == bp &&
							(c.amounts < bestCost.amounts || c.amounts == bestCost.amounts && a*b > best.a*best.b) {
							best, bestCost = p, c
						}
					}
				}
			}
		}
	}
	return best
}

// denseGaps is where a tensor's lane has room for copies of it. Its axes
// are those of two or more elements, (elements, stride) pairs innermost
// first. Gap level l < len(axes) is the room between consecutive elements
// of axis l, where copies of one element — the block the axes below it span
// — go side by side; level len(axes) is the room past the span, where
// copies of the whole go a power of two apart, like the lane stride.
type denseGaps struct {
	axes       [][2]int
	offset, ls int
}

func newDenseGaps(in *CipherTensor) denseGaps {
	g := denseGaps{offset: in.Offset, ls: in.BatchStride}
	for _, ax := range [][2]int{{in.W, in.ColStride}, {in.H, in.RowStride}, {min(in.C, in.CPerCT), in.ChanStride}} {
		if ax[0] > 1 {
			g.axes = append(g.axes, ax)
		}
	}
	slices.SortStableFunc(g.axes, func(x, y [2]int) int { return cmp.Compare(x[1], y[1]) })
	return g
}

// units returns the displacement units of a copies in gap level la and b
// in level lb (-1: none; a level's copies sit one block apart), and whether
// they fit: each level's copies inside the stride of its axis, the blocks
// of every level above them still clear of each other, and all inside the
// lane. An input whose elements interleave offers no gap at or above the
// level where they do, only the room past its span.
func (g denseGaps) units(la, a, lb, b int) (cu, ru int, ok bool) {
	copies := func(l, u int) int {
		switch {
		case l == la:
			cu = u
			return a
		case l == lb:
			ru = u
			return b
		}
		return 1
	}
	e, placed, nested := 1, false, true // e: the extent of the block below level l
	for l, ax := range g.axes {
		if k := copies(l, e); k > 1 {
			if !nested {
				return 0, 0, false
			}
			e, placed = k*e, true
		}
		if e > ax[1] {
			if placed {
				return 0, 0, false
			}
			nested = false
		}
		e += (ax[0] - 1) * ax[1]
	}
	if g.offset+e > g.ls {
		return 0, 0, false
	}
	m := nextPow2(g.offset + e)
	if k := copies(len(g.axes), m); k*m > g.ls && k > 1 {
		return 0, 0, false
	}
	return cu, ru, true
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
