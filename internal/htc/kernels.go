package htc

import (
	"fmt"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// accumulate adds t into acc, treating a nil acc as zero.
func accumulate(b hisa.Backend, acc, t hisa.Ciphertext) hisa.Ciphertext {
	if acc == nil {
		return t
	}
	x, y := alignScales(b, acc, t)
	return b.Add(x, y)
}

// rotateRight rotates c right by k slots, or left by -k when k is negative;
// zero is the identity and costs nothing.
func rotateRight(b hisa.Backend, c hisa.Ciphertext, k int) hisa.Ciphertext {
	switch {
	case k > 0:
		return b.RotRight(c, k)
	case k < 0:
		return b.RotLeft(c, -k)
	}
	return c
}

// perOutput builds a sum of rotations' n outputs, output o's terms by
// terms(o) — or, when b computes nothing from the kernels' weights, output
// 0's for every output: outside its recording run the compiler's analysis
// reads only the terms' sources, rotations and scales, which a kernel's
// outputs share, and building the rest is most of a compile's garbage.
func perOutput(b hisa.Backend, n int, terms func(o int) []hisa.Term) [][]hisa.Term {
	sums := make([][]hisa.Term, n)
	rb, ok := hisa.FindCapability[recorder](b)
	shared := ok && rb.Recording() == nil
	for o := range sums {
		if shared && o > 0 {
			sums[o] = sums[0]
			continue
		}
		sums[o] = terms(o)
	}
	return sums
}

// foldStrided returns Σ_{j<n} rot_{j·s}(c), each term weighted by w when w
// is non-nil: element 0 receives the n elements that sit s slots apart
// (element i at slot i*s past any origin), exactly — no slot beyond element
// n-1 is ever read into its sum. A padded log-fold would not do: rounding 3
// rows up to 4 reads the next channel's row 0 when ChanStride ==
// H*RowStride. Elements other than 0 hold partial sums afterwards.
//
// The fold runs in base 4. Window i holds at every element the sum of the
// 4^i elements from there; each is one sum of rotations of the window
// before it, {0, a, 2a, 3a} with a = 4^(i-1)·s: one ModUp, three key inner
// products and one ModDown where two doubling steps pay two of each. n's
// base-4 digits, the top one in 1..4, say how many windows of each width
// tile [0, n), narrowest first; one last sum, over every window it draws
// on, adds them and takes w as its terms' weight. foldRotations counts its
// rotations.
func foldStrided(b hisa.Backend, c hisa.Ciphertext, n, s int, w hisa.Plaintext) hisa.Ciphertext {
	if n <= 1 {
		if w != nil {
			return b.MulPlain(c, w)
		}
		return c
	}
	built, lo, last := foldPlan(n)
	windows := []hisa.Ciphertext{c}
	for i, k := 0, 1; i < built; i, k = i+1, k*4 {
		sum := make([]hisa.Term, 4)
		for j := range sum {
			sum[j] = hisa.Term{Rot: j * k * s}
		}
		windows = append(windows, b.RotSum(windows[i:], [][]hisa.Term{sum}, nil)[0])
	}
	terms := make([]hisa.Term, len(last))
	for t, at := range last {
		terms[t] = hisa.Term{Src: at[0] - lo, Rot: at[1] * s, Plain: w}
	}
	return b.RotSum(windows[lo:], [][]hisa.Term{terms}, nil)[0]
}

// foldPlan lays out foldStrided for n >= 2 elements one slot apart. It
// builds windows 1..built, window i the sum of window i-1 at {0, 1, 2, 3}
// times 4^(i-1) (window 0 is the input); its last sum reads windows lo and
// up, a term per (window, amount) in last, in order.
func foldPlan(n int) (built, lo int, last [][2]int) {
	top, width := foldDigits(n)
	lo, done := -1, 0
	for i, k := 0, 1; k <= width; i, k = i+1, k*4 {
		d := n / k % 4
		if k == width {
			d = top
		} else {
			built++
		}
		if d > 0 && lo < 0 {
			lo = i
		}
		for j := 0; j < d; j++ {
			last = append(last, [2]int{i, done + j*k})
		}
		done += d * k
	}
	return built, lo, last
}

// foldDigits splits n >= 2 for foldStrided: width is the largest power of 4
// below n, top the number of width-wide windows n holds (1..4); the rest of
// n is its base-4 digits below width.
func foldDigits(n int) (top, width int) {
	width = 1
	for width*4 < n {
		width *= 4
	}
	return n / width, width
}

// foldRotations is the number of rotations foldStrided issues for n
// elements: three per window it builds, and one per term of its last sum
// but the first, which is unrotated.
func foldRotations(n int) int {
	if n <= 1 {
		return 0
	}
	built, _, last := foldPlan(n)
	return 3*built + len(last) - 1
}

// foldSums is the number of sums of rotations foldStrided issues for n
// elements: one per window it builds and the last.
func foldSums(n int) int {
	if n <= 1 {
		return 0
	}
	built, _, _ := foldPlan(n)
	return built + 1
}

// foldAmounts is the number of distinct amounts foldStrided rotates by for
// n elements, in elements: the rotation keys it needs.
func foldAmounts(n int) int {
	if n <= 1 {
		return 0
	}
	built, _, last := foldPlan(n)
	amounts := map[int]bool{}
	for i, k := 0, 1; i < built; i, k = i+1, k*4 {
		amounts[k], amounts[2*k], amounts[3*k] = true, true, true
	}
	for _, at := range last[1:] {
		amounts[at[1]] = true
	}
	return len(amounts)
}

// Conv2D computes a homomorphic convolution with plaintext OIHW filters,
// optional per-channel bias, stride, and symmetric zero padding. The output
// stays on the input's slot grid with strides multiplied by the conv stride
// (reshapes are metadata-only, performed lazily). Figure 4 of the paper is
// the HW instance of this kernel.
//
// An input whose ciphertexts hold one channel each — the HW layout, and a
// CHW tensor whose lane fits one channel block — takes the HW path: scalar
// taps, one sum of rotations per output channel. Its output keeps invalid
// slots at zero with a mask only when clean is set; otherwise they hold
// partial sums (see Execute's dirty-slot rule). A CHW input that packs
// channels multiplies weight plaintexts (scalar taps for a ciphertext that
// holds a single channel), folds the channel blocks, and masks block 0
// before placing it, whatever clean says: that mask is what keeps the other
// blocks' partial sums out, and the output stays packed for the next layer.
func Conv2D(b hisa.RunsBackend, in *CipherTensor, filters, bias *tensor.Tensor, stride, pad int, clean bool, sc Scales, opts ExecOptions) *CipherTensor {
	if filters.Rank() != 4 || filters.Shape[1] != in.C {
		panic(fmt.Sprintf("htc: conv filters %v incompatible with input channels %d", filters.Shape, in.C))
	}
	cout, kh, kw := filters.Shape[0], filters.Shape[2], filters.Shape[3]
	hout := (in.H+2*pad-kh)/stride + 1
	wout := (in.W+2*pad-kw)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic("htc: conv output would be empty")
	}
	if pad > 0 && in.Offset < pad*(in.RowStride+in.ColStride) {
		panic(fmt.Sprintf("htc: conv padding %d exceeds the layout apron; recompile with a larger apron", pad))
	}

	out := metaClone(in)
	out.C = cout
	out.H, out.W = hout, wout
	out.RowStride = in.RowStride * stride
	out.ColStride = in.ColStride * stride

	rot := func(ky, kx int) int {
		return (ky-pad)*in.RowStride + (kx-pad)*in.ColStride
	}

	if in.Layout == LayoutHW || in.CPerCT == 1 {
		// Output channel oc is one sum of rotations of the input channels,
		// each filter tap a scalar weight.
		out.CPerCT = 1
		sums := perOutput(b, cout, func(oc int) []hisa.Term {
			terms := make([]hisa.Term, 0, in.C*kh*kw)
			for ic := 0; ic < in.C; ic++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						terms = append(terms, hisa.Term{Src: ic, Rot: rot(ky, kx), X: filters.At(oc, ic, ky, kx), F: sc.Pu})
					}
				}
			}
			return terms
		})
		out.CTs = b.RotSum(in.CTs, sums, nil)
		var mask hisa.Plaintext
		if clean {
			mask = b.EncodeRuns(out.channels(0, uniform(1)), sc.Pm)
		}
		for oc := 0; oc < cout; oc++ {
			acc := tryRescale(b, out.CTs[oc], sc.Pc)
			if clean {
				acc = tryRescale(b, opts.masked(b, acc, mask), sc.Pc)
			}
			if bias != nil {
				acc = addVecBoth(b, out.Complex, acc, out.channels(0, uniform(bias.Data[oc])))
			}
			out.CTs[oc] = acc
		}
		out.validate(b.Slots())
		return &out
	}

	// CHW layout. Channel blocking is computed against one batch lane so the
	// fold and placement rotations below stay lane-local.
	outCPerCT := blockCapacity(in.BatchStride, in.ChanStride)
	out.CPerCT = outCPerCT
	numOutCTs := (cout + outCPerCT - 1) / outCPerCT
	out.CTs = make([]hisa.Ciphertext, numOutCTs)

	numInCTs := in.NumCTs()
	// The block-0 mask of the output grid, used to isolate the folded
	// channel sum before placing it at its output channel block.
	blockMask := metaClone(&out)
	blockMask.C = 1
	blockMask.CPerCT = 1
	mask := b.EncodeRuns(blockMask.channels(0, uniform(1)), sc.Pm)

	for g := 0; g < numInCTs; g++ {
		// Partial sums of this ciphertext's occupied channels, one sum of
		// rotations per output channel with the weight plaintexts
		// w[oc][ic][ky][kx] spread over channel ic's whole block — one run
		// per block (invalid input slots hold zeros, so the product is zero
		// there) — then folded to block 0, masked, and placed at the output
		// channel block.
		chInGroup := min(in.C-g*in.CPerCT, in.CPerCT)
		sums := perOutput(b, cout, func(oc int) []hisa.Term {
			terms := make([]hisa.Term, 0, kh*kw)
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					if chInGroup == 1 {
						// One channel: the block-0 mask below does what a
						// weight plaintext spread over its block would.
						terms = append(terms, hisa.Term{Rot: rot(ky, kx), X: filters.At(oc, g*in.CPerCT, ky, kx), F: sc.Pu})
						continue
					}
					pt := b.EncodeRuns(in.constant(func(rs []hisa.Run) []hisa.Run {
						for ci := 0; ci < chInGroup; ci++ {
							w := filters.At(oc, g*in.CPerCT+ci, ky, kx)
							rs = append(rs, hisa.Run{Start: int32(ci * in.ChanStride), Len: int32(in.ChanStride), Value: w})
						}
						return rs
					}), sc.Pw)
					terms = append(terms, hisa.Term{Rot: rot(ky, kx), Plain: pt})
				}
			}
			return terms
		})
		partial := b.RotSum(in.CTs[g:g+1], sums, nil)
		// Fold the partial sums of this ciphertext's occupied channels into
		// channel block 0, masked. Rounding the count up to a power of two
		// is safe here — the blocks up to the power-of-two CPerCT lie in
		// this lane and hold zeros — and taken where it rotates less.
		fold := chInGroup
		if foldRotations(nextPow2(fold)) < foldRotations(fold) {
			fold = nextPow2(fold)
		}
		for oc := 0; oc < cout; oc++ {
			acc := tryRescale(b, partial[oc], sc.Pc)
			partial[oc] = tryRescale(b, opts.foldMasked(b, acc, mask, [2]int{fold, in.ChanStride}), sc.Pc)
		}
		// Place every output channel at its block of its output ciphertext:
		// one sum of rotations per output ciphertext, continuing the previous
		// input ciphertext's sum, with the terms in channel order.
		srcs := partial
		sums = make([][]hisa.Term, numOutCTs)
		for gOut, c := range out.CTs {
			if c != nil {
				sums[gOut] = []hisa.Term{{Src: len(srcs)}}
				srcs = append(srcs, c)
			}
		}
		for oc := 0; oc < cout; oc++ {
			gOut := oc / outCPerCT
			sums[gOut] = append(sums[gOut], hisa.Term{Src: oc, Rot: -(oc % outCPerCT) * in.ChanStride})
		}
		out.CTs = b.RotSum(srcs, sums, nil)
	}

	if bias != nil {
		for gOut := range out.CTs {
			bv := out.channels(gOut, func(ch int) float64 { return bias.Data[ch] })
			out.CTs[gOut] = addVecBoth(b, out.Complex, out.CTs[gOut], bv)
		}
	}
	out.validate(b.Slots())
	return &out
}

// SumPool2D sums every pooling window (valid padding): an average pool whose
// division by the window size the compiler carried forward to a layer that
// absorbs it. The window sum is one sum of rotations per ciphertext group,
// shared across its channels; it costs no level. The slots around the
// output grid hold sums of their own windows, so a mask (one level) zeroes
// them only when clean is set, as the weight of the window sum's terms.
func SumPool2D(b hisa.RunsBackend, in *CipherTensor, window, stride int, clean bool, sc Scales, opts ExecOptions) *CipherTensor {
	hout := (in.H-window)/stride + 1
	wout := (in.W-window)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic("htc: pool output would be empty")
	}
	out := metaClone(in)
	out.H, out.W = hout, wout
	out.RowStride = in.RowStride * stride
	out.ColStride = in.ColStride * stride

	// Groups share a mask except a possibly ragged final group.
	masks := map[int]hisa.Plaintext{}
	sums := make([][]hisa.Term, len(in.CTs))
	for g := range sums {
		var mask hisa.Plaintext
		if clean {
			chInGroup := min(in.C-g*in.CPerCT, in.CPerCT)
			if masks[chInGroup] == nil {
				masks[chInGroup] = b.EncodeRuns(out.channels(g, uniform(1)), sc.Pm)
			}
			mask = masks[chInGroup]
			opts.tallyMask()
		}
		for ky := 0; ky < window; ky++ {
			for kx := 0; kx < window; kx++ {
				sums[g] = append(sums[g], hisa.Term{Src: g, Rot: ky*in.RowStride + kx*in.ColStride, Plain: mask})
			}
		}
	}
	out.CTs = b.RotSum(in.CTs, sums, nil)
	if clean {
		for g, c := range out.CTs {
			out.CTs[g] = tryRescale(b, c, sc.Pc)
		}
	}
	out.validate(b.Slots())
	return &out
}

// GlobalAvgPool2D averages each channel down to a single value at grid
// position (0, 0) by folding the columns, then the rows (foldStrided), the
// last fold weighted by the mask that scales by 1/(H·W).
func GlobalAvgPool2D(b hisa.RunsBackend, in *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
	out := metaClone(in)
	out.H, out.W = 1, 1
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())

	inv := 1.0 / float64(in.H*in.W)
	mask := b.EncodeRuns(out.channels(0, uniform(inv)), sc.Pm)

	for g := range in.CTs {
		acc := opts.foldMasked(b, in.CTs[g], mask, [2]int{in.W, in.ColStride}, [2]int{in.H, in.RowStride})
		out.CTs[g] = tryRescale(b, acc, sc.Pc)
	}
	out.validate(b.Slots())
	return &out
}

// Activation applies the monic quadratic f(x) = x·(x + shift), the form the
// compiler rewrites every activation a·x² + b·x into (shift = b/a, the factor
// a carried forward to a layer that absorbs it): one ciphertext product and
// one level. Adding shift touches every slot, but the product is zero
// wherever x is, so a tensor with zero invalid slots keeps them.
func Activation(b hisa.RunsBackend, in *CipherTensor, shift float64, sc Scales) *CipherTensor {
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	for g := range in.CTs {
		x := in.CTs[g]
		var y hisa.Ciphertext
		if in.Complex {
			y = activationPairwise(b, x, shift)
		} else {
			y = b.MulNoRelin(b.AddScalar(x, shift), x)
		}
		// reduceRelin closes the product: the rescale and the
		// relinearization run as one instruction. The complex path's two
		// shared-relin products land here too.
		out.CTs[g] = reduceRelin(b, y, sc.Pc)
	}
	return &out
}

// PolyEval applies a general polynomial activation p(x) = sum c_i x^i by
// Horner's rule: degree-1 ciphertext multiplications plus one scalar
// multiplication. The constant term is added only at valid positions so the
// zero-slot invariant survives.
func PolyEval(b hisa.RunsBackend, in *CipherTensor, coeffs []float64, sc Scales) *CipherTensor {
	d := len(coeffs) - 1
	if d < 1 {
		panic("htc: PolyEval needs degree >= 1")
	}
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	for g := range in.CTs {
		x := in.CTs[g]
		// Horner multiplies by the same x every round, so the complex path
		// conjugates x once per group and shares it across iterations.
		var xbar hisa.Ciphertext
		if in.Complex {
			xbar = b.Conjugate(x)
		}
		// acc = c_d * x, then repeatedly acc = (acc + c_i) * x.
		acc := b.MulScalar(x, coeffs[d], sc.Pu)
		acc = tryRescale(b, acc, sc.Pc)
		for i := d - 1; i >= 1; i-- {
			// AddScalar touches invalid slots too, but the following
			// multiplication by x (zero there) restores the invariant.
			acc = addScalarBoth(b, in.Complex, acc, coeffs[i])
			if in.Complex {
				acc = mulPairwiseY(b, acc, x, xbar)
				acc = tryRescale(b, acc, sc.Pc)
			} else {
				acc = reduceRelin(b, b.MulNoRelin(acc, x), sc.Pc)
			}
		}
		if coeffs[0] != 0 {
			acc = addVecBoth(b, in.Complex, acc, in.channels(g, uniform(coeffs[0])))
		}
		out.CTs[g] = acc
	}
	return &out
}

// BatchNorm applies the folded inference-time normalization
// y = gamma[c]*x + beta[c]. In HW layout the per-channel scale is a cheap
// scalar multiplication; in CHW it requires a plaintext vector — the
// layout-dependent cost difference the paper highlights.
func BatchNorm(b hisa.RunsBackend, in *CipherTensor, gamma, beta *tensor.Tensor, sc Scales) *CipherTensor {
	if gamma.Size() != in.C || beta.Size() != in.C {
		panic("htc: batchnorm parameter size mismatch")
	}
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	for g := range in.CTs {
		var t hisa.Ciphertext
		if in.Layout == LayoutHW {
			t = b.MulScalar(in.CTs[g], gamma.Data[g], sc.Pu)
		} else {
			gv := in.channels(g, func(ch int) float64 { return gamma.Data[ch] })
			t = b.MulPlain(in.CTs[g], b.EncodeRuns(gv, sc.Pw))
		}
		t = tryRescale(b, t, sc.Pc)
		t = addVecBoth(b, in.Complex, t, in.channels(g, func(ch int) float64 { return beta.Data[ch] }))
		out.CTs[g] = t
	}
	return &out
}

// Add computes the elementwise sum of two CipherTensors with identical
// metadata (residual connections).
func Add(b hisa.RunsBackend, x, y *CipherTensor) *CipherTensor {
	if x.C != y.C || !sameGrid(x, y) {
		panic("htc: Add requires identical layouts; insert a layout conversion")
	}
	out := metaClone(x)
	out.CTs = make([]hisa.Ciphertext, x.NumCTs())
	for g := range x.CTs {
		a, bb := alignScales(b, x.CTs[g], y.CTs[g])
		out.CTs[g] = b.Add(a, bb)
	}
	return &out
}

// Concat concatenates CipherTensors along the channel axis. When every
// input's channel count is a multiple of the block capacity the
// concatenation is free (ciphertext list append); otherwise channels are
// moved individually with mask-and-rotate.
func Concat(b hisa.RunsBackend, sc Scales, opts ExecOptions, ins ...*CipherTensor) *CipherTensor {
	if len(ins) < 2 {
		panic("htc: Concat needs at least two inputs")
	}
	first := ins[0]
	totalC := 0
	for _, in := range ins {
		if !sameGrid(first, in) {
			panic("htc: Concat inputs must share geometry")
		}
		totalC += in.C
	}
	out := metaClone(first)
	out.C = totalC

	if first.Layout == LayoutHW {
		out.CTs = nil
		for _, in := range ins {
			out.CTs = append(out.CTs, in.CTs...)
		}
		out.validate(b.Slots())
		return &out
	}

	// Fast path: all inputs group-aligned.
	aligned := true
	for _, in := range ins[:len(ins)-1] {
		if in.C%in.CPerCT != 0 {
			aligned = false
			break
		}
	}
	if aligned {
		out.CTs = nil
		for _, in := range ins {
			out.CTs = append(out.CTs, in.CTs...)
		}
		out.validate(b.Slots())
		return &out
	}

	// Slow path: isolate each channel and place it at its target block.
	out.CTs = make([]hisa.Ciphertext, (totalC+out.CPerCT-1)/out.CPerCT)
	och := 0
	for _, in := range ins {
		for ch := 0; ch < in.C; ch, och = ch+1, och+1 {
			bIn, bOut := ch%in.CPerCT, och%out.CPerCT
			single := metaClone(in)
			single.C, single.CPerCT = 1, 1
			single.Offset = in.Offset + bIn*in.ChanStride
			mask := b.EncodeRuns(single.channels(0, uniform(1)), sc.Pm)
			t := tryRescale(b, opts.masked(b, in.CTs[ch/in.CPerCT], mask), sc.Pc)
			out.CTs[och/out.CPerCT] = accumulate(b, out.CTs[och/out.CPerCT], rotateRight(b, t, (bOut-bIn)*in.ChanStride))
		}
	}
	out.validate(b.Slots())
	return &out
}

// Pad2D grows the logical spatial dims into the layout apron. The apron
// slots are already zero, so padding is purely a metadata operation — the
// "avoid or delay these expensive operations" optimization of Section 4.2.
func Pad2D(in *CipherTensor, pad int) *CipherTensor {
	if in.Offset < pad*(in.RowStride+in.ColStride) {
		panic(fmt.Sprintf("htc: pad %d exceeds the layout apron; recompile with a larger apron", pad))
	}
	out := metaClone(in)
	out.H = in.H + 2*pad
	out.W = in.W + 2*pad
	out.Offset = in.Offset - pad*in.RowStride - pad*in.ColStride
	out.CTs = in.CTs
	return &out
}

// ToCHW converts an HW-layout tensor to CHW by shifting each channel into
// its block and adding (no masks needed: invalid slots are zero): one sum of
// rotations over the channels, an output per ciphertext.
func ToCHW(b hisa.RunsBackend, in *CipherTensor) *CipherTensor {
	if in.Layout == LayoutCHW {
		return in
	}
	out := metaClone(in)
	out.Layout = LayoutCHW
	cPerCT := blockCapacity(in.BatchStride, in.ChanStride)
	out.CPerCT = cPerCT
	sums := make([][]hisa.Term, (in.C+cPerCT-1)/cPerCT)
	for ch := range in.CTs {
		sums[ch/cPerCT] = append(sums[ch/cPerCT], hisa.Term{Src: ch, Rot: -(ch % cPerCT) * in.ChanStride})
	}
	out.CTs = b.RotSum(in.CTs, sums, nil)
	out.validate(b.Slots())
	return &out
}

// ToHW converts a CHW-layout tensor to HW: each channel is rotated to block
// zero and isolated with a mask (the conversion that costs depth).
func ToHW(b hisa.RunsBackend, in *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
	if in.Layout == LayoutHW {
		return in
	}
	out := metaClone(in)
	out.Layout = LayoutHW
	out.CPerCT = 1
	out.CTs = make([]hisa.Ciphertext, in.C)

	single := metaClone(in)
	single.C = 1
	single.CPerCT = 1
	mask := b.EncodeRuns(single.channels(0, uniform(1)), sc.Pm)
	for ch := 0; ch < in.C; ch++ {
		t := rotateRight(b, in.CTs[ch/in.CPerCT], -(ch%in.CPerCT)*in.ChanStride)
		out.CTs[ch] = tryRescale(b, opts.masked(b, t, mask), sc.Pc)
	}
	out.validate(b.Slots())
	return &out
}
