package htc

import (
	"fmt"
	"math/bits"

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

// foldStrided sums the n elements of c that sit s slots apart (element i at
// slot i*s past any origin) into element 0, exactly: no slot beyond element
// n-1 is ever read into element 0's sum. A padded log-fold would not do —
// rounding 3 rows up to 4 reads the next channel's row 0 when ChanStride ==
// H*RowStride. Double-and-add: w holds at every element the sum of the 2^k
// elements starting there, and the windows matching n's binary digits tile
// [0, n). A power-of-two n is the plain log-fold (log2 n rotations); any
// other n costs floor(log2 n) + popcount(n) - 1 (see foldRotations).
// Elements other than 0 hold partial sums afterwards.
func foldStrided(b hisa.Backend, c hisa.Ciphertext, n, s int) hisa.Ciphertext {
	var sum hisa.Ciphertext
	w, done := c, 0 // elements [0, done) are in sum
	for k := 1; k <= n; k <<= 1 {
		if n&k != 0 {
			sum = accumulate(b, sum, rotateRight(b, w, -done*s))
			done += k
		}
		if 2*k <= n {
			w = b.Add(w, b.RotLeft(w, k*s))
		}
	}
	return sum
}

// foldRotations is the number of rotations foldStrided issues for n elements.
func foldRotations(n int) int {
	return bits.Len(uint(n)) + bits.OnesCount(uint(n)) - 2
}

// Conv2D computes a homomorphic convolution with plaintext OIHW filters,
// optional per-channel bias, stride, and symmetric zero padding. The output
// stays on the input's slot grid with strides multiplied by the conv stride
// (reshapes are metadata-only, performed lazily). Figure 4 of the paper is
// the HW instance of this kernel.
//
// Output channels are computed by opts.Workers goroutines and folded into
// the output in serial channel order, so the result is bit-identical to a
// serial run.
func Conv2D(b hisa.Backend, in *CipherTensor, filters, bias *tensor.Tensor, stride, pad int, sc Scales, opts ExecOptions) *CipherTensor {
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

	if in.Layout == LayoutHW {
		// Output channel oc is one sum of rotations of the input channels,
		// each filter tap a scalar weight.
		out.CPerCT = 1
		sums := make([][]hisa.Term, cout)
		terms := make([]hisa.Term, 0, cout*in.C*kh*kw)
		for oc := range sums {
			terms = terms[len(terms):]
			for ic := 0; ic < in.C; ic++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						terms = append(terms, hisa.Term{Src: ic, Rot: rot(ky, kx), X: filters.At(oc, ic, ky, kx), F: sc.Pu})
					}
				}
			}
			sums[oc] = terms
		}
		out.CTs = b.RotSum(in.CTs, sums, opts.each)
		mask := opts.constant(b, perChannelVector(&out, 0, b.Slots(), uniform(1)), sc.Pm)
		parallelFor(opts.workers(), cout, func(oc int) {
			acc := tryRescale(b, out.CTs[oc], sc.Pc)
			acc = b.MulPlain(acc, mask.at(acc))
			acc = tryRescale(b, acc, sc.Pc)
			if bias != nil {
				bv := perChannelVector(&out, 0, b.Slots(), uniform(bias.Data[oc]))
				acc = addVecBoth(b, opts, out.Complex, acc, bv)
			}
			out.CTs[oc] = acc
		})
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
	mask := opts.constant(b, perChannelVector(&blockMask, 0, b.Slots(), uniform(1)), sc.Pm)

	for g := 0; g < numInCTs; g++ {
		// Partial sums of this ciphertext's occupied channels, one sum of
		// rotations per output channel with the weight plaintexts
		// w[oc][ic][ky][kx] spread over channel ic's whole block (invalid
		// input slots hold zeros, so the product is zero there), then folded
		// to block 0, masked, and placed at the output channel block.
		chInGroup := min(in.C-g*in.CPerCT, in.CPerCT)
		sums := make([][]hisa.Term, cout)
		terms := make([]hisa.Term, 0, cout*kh*kw)
		for oc := range sums {
			terms = terms[len(terms):]
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					wv := make([]float64, b.Slots())
					for ci := 0; ci < chInGroup; ci++ {
						w := filters.At(oc, g*in.CPerCT+ci, ky, kx)
						for s := ci * in.ChanStride; s < (ci+1)*in.ChanStride; s++ {
							wv[s] = w
						}
					}
					pt := opts.constant(b, in.replicate(wv), sc.Pw).at(in.CTs[g])
					terms = append(terms, hisa.Term{Rot: rot(ky, kx), Plain: pt})
				}
			}
			sums[oc] = terms
		}
		partial := b.RotSum(in.CTs[g:g+1], sums, opts.each)
		parallelFor(opts.workers(), cout, func(oc int) {
			acc := tryRescale(b, partial[oc], sc.Pc)
			// Fold the partial sums of this ciphertext's occupied channels
			// into channel block 0. Rounding the count up is safe here and
			// never dearer than the exact fold: the blocks up to the
			// power-of-two CPerCT lie in this lane and hold zeros.
			acc = foldStrided(b, acc, nextPow2(chInGroup), in.ChanStride)
			acc = b.MulPlain(acc, mask.at(acc))
			partial[oc] = tryRescale(b, acc, sc.Pc)
		})
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
		out.CTs = b.RotSum(srcs, sums, opts.each)
		for _, c := range srcs {
			b.Free(c)
		}
	}

	if bias != nil {
		for gOut := range out.CTs {
			bv := perChannelVector(&out, gOut, b.Slots(), func(ch int) float64 { return bias.Data[ch] })
			out.CTs[gOut] = addVecBoth(b, opts, out.Complex, out.CTs[gOut], bv)
		}
	}
	out.validate(b.Slots())
	return &out
}

// AvgPool2D applies average pooling (valid padding). The window sum is
// collected with rotations shared across channels; the division by the
// window size is folded into the output mask, so pooling costs a single
// mask-depth multiplication.
//
// Ciphertext groups are pooled by opts.Workers goroutines.
func AvgPool2D(b hisa.Backend, in *CipherTensor, window, stride int, sc Scales, opts ExecOptions) *CipherTensor {
	hout := (in.H-window)/stride + 1
	wout := (in.W-window)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic("htc: pool output would be empty")
	}
	out := metaClone(in)
	out.H, out.W = hout, wout
	out.RowStride = in.RowStride * stride
	out.ColStride = in.ColStride * stride

	inv := 1.0 / float64(window*window)
	// Groups share a mask except a possibly ragged final group. Masks are
	// prepared up front so the worker pool reads the map without locking.
	masks := map[int]constant{}
	for g := range in.CTs {
		chInGroup := min(in.C-g*in.CPerCT, in.CPerCT)
		if _, ok := masks[chInGroup]; !ok {
			masks[chInGroup] = opts.constant(b, perChannelVector(&out, g, b.Slots(), uniform(inv)), sc.Pm)
		}
	}

	// Each group's window sum is one sum of rotations.
	sums := make([][]hisa.Term, len(in.CTs))
	for g := range sums {
		for ky := 0; ky < window; ky++ {
			for kx := 0; kx < window; kx++ {
				sums[g] = append(sums[g], hisa.Term{Src: g, Rot: ky*in.RowStride + kx*in.ColStride})
			}
		}
	}
	out.CTs = b.RotSum(in.CTs, sums, opts.each)
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		acc := b.MulPlain(out.CTs[g], masks[min(in.C-g*in.CPerCT, in.CPerCT)].at(out.CTs[g]))
		out.CTs[g] = tryRescale(b, acc, sc.Pc)
	})
	out.validate(b.Slots())
	return &out
}

// GlobalAvgPool2D averages each channel down to a single value at grid
// position (0, 0) by folding the columns, then the rows (foldStrided).
//
// Ciphertext groups are reduced by opts.Workers goroutines.
func GlobalAvgPool2D(b hisa.Backend, in *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
	out := metaClone(in)
	out.H, out.W = 1, 1
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())

	inv := 1.0 / float64(in.H*in.W)
	mask := opts.constant(b, perChannelVector(&out, 0, b.Slots(), uniform(inv)), sc.Pm)

	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		acc := foldStrided(b, in.CTs[g], in.W, in.ColStride)
		acc = foldStrided(b, acc, in.H, in.RowStride)
		acc = b.MulPlain(acc, mask.at(acc))
		out.CTs[g] = tryRescale(b, acc, sc.Pc)
	})
	out.validate(b.Slots())
	return &out
}

// Activation applies f(x) = a*x^2 + b*x, computed as x*(a*x + b) to spend
// one ciphertext multiplication and one scalar multiplication.
//
// Ciphertext groups are transformed by opts.Workers goroutines.
func Activation(b hisa.Backend, in *CipherTensor, a, bb float64, sc Scales, opts ExecOptions) *CipherTensor {
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		x := in.CTs[g]
		if a == 0 {
			y := b.MulScalar(x, bb, sc.Pu)
			out.CTs[g] = tryRescale(b, y, sc.Pc)
			return
		}
		var y hisa.Ciphertext
		if in.Complex {
			y = activationPairwise(b, x, a, bb, sc)
		} else {
			t := b.MulScalar(x, a, sc.Pu)
			t = tryRescale(b, t, sc.Pc)
			// Adding b everywhere is safe: invalid slots of x are zero, so
			// the final product restores the zero invariant.
			t = b.AddScalar(t, bb)
			y = b.MulNoRelin(t, x)
		}
		// reduceRelin closes the product: the rescale and the
		// relinearization run as one instruction. The complex path's two
		// shared-relin products land here too.
		out.CTs[g] = reduceRelin(b, y, sc.Pc)
	})
	return &out
}

// PolyEval applies a general polynomial activation p(x) = sum c_i x^i by
// Horner's rule: degree-1 ciphertext multiplications plus one scalar
// multiplication. The constant term is added only at valid positions so the
// zero-slot invariant survives.
//
// Ciphertext groups are evaluated by opts.Workers goroutines.
func PolyEval(b hisa.Backend, in *CipherTensor, coeffs []float64, sc Scales, opts ExecOptions) *CipherTensor {
	d := len(coeffs) - 1
	if d < 1 {
		panic("htc: PolyEval needs degree >= 1")
	}
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
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
			cv := perChannelVector(in, g, b.Slots(), uniform(coeffs[0]))
			acc = addVecBoth(b, opts, in.Complex, acc, cv)
		}
		out.CTs[g] = acc
	})
	return &out
}

// BatchNorm applies the folded inference-time normalization
// y = gamma[c]*x + beta[c]. In HW layout the per-channel scale is a cheap
// scalar multiplication; in CHW it requires a plaintext vector — the
// layout-dependent cost difference the paper highlights.
//
// Ciphertext groups are normalized by opts.Workers goroutines.
func BatchNorm(b hisa.Backend, in *CipherTensor, gamma, beta *tensor.Tensor, sc Scales, opts ExecOptions) *CipherTensor {
	if gamma.Size() != in.C || beta.Size() != in.C {
		panic("htc: batchnorm parameter size mismatch")
	}
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		var t hisa.Ciphertext
		if in.Layout == LayoutHW {
			t = b.MulScalar(in.CTs[g], gamma.Data[g], sc.Pu)
		} else {
			gv := perChannelVector(in, g, b.Slots(), func(ch int) float64 { return gamma.Data[ch] })
			t = b.MulPlain(in.CTs[g], opts.constant(b, gv, sc.Pw).at(in.CTs[g]))
		}
		t = tryRescale(b, t, sc.Pc)
		bv := perChannelVector(in, g, b.Slots(), func(ch int) float64 { return beta.Data[ch] })
		t = addVecBoth(b, opts, in.Complex, t, bv)
		out.CTs[g] = t
	})
	return &out
}

// Add computes the elementwise sum of two CipherTensors with identical
// metadata (residual connections).
//
// Ciphertext groups are summed by opts.Workers goroutines.
func Add(b hisa.Backend, x, y *CipherTensor, opts ExecOptions) *CipherTensor {
	if x.C != y.C || !sameGrid(x, y) {
		panic("htc: Add requires identical layouts; insert a layout conversion")
	}
	out := metaClone(x)
	out.CTs = make([]hisa.Ciphertext, x.NumCTs())
	parallelFor(opts.workers(), len(x.CTs), func(g int) {
		a, bb := alignScales(b, x.CTs[g], y.CTs[g])
		out.CTs[g] = b.Add(a, bb)
	})
	return &out
}

// Concat concatenates CipherTensors along the channel axis. When every
// input's channel count is a multiple of the block capacity the
// concatenation is free (ciphertext list append); otherwise channels are
// moved individually with mask-and-rotate.
//
// On the mask-and-rotate path, per-channel isolation runs on opts.Workers
// goroutines and the isolated channels are folded into the output in serial
// channel order.
func Concat(b hisa.Backend, sc Scales, opts ExecOptions, ins ...*CipherTensor) *CipherTensor {
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
	numOutCTs := (totalC + out.CPerCT - 1) / out.CPerCT
	out.CTs = make([]hisa.Ciphertext, numOutCTs)
	type job struct {
		in      *CipherTensor
		ch, och int
	}
	jobs := make([]job, 0, totalC)
	base := 0
	for _, in := range ins {
		for ch := 0; ch < in.C; ch++ {
			jobs = append(jobs, job{in: in, ch: ch, och: base + ch})
		}
		base += in.C
	}
	isolated := make([]hisa.Ciphertext, len(jobs))
	parallelFor(opts.workers(), len(jobs), func(j int) {
		in, ch := jobs[j].in, jobs[j].ch
		gIn, bIn := ch/in.CPerCT, ch%in.CPerCT
		bOut := jobs[j].och % out.CPerCT

		single := metaClone(in)
		single.C = 1
		single.CPerCT = 1
		single.Offset = in.Offset + bIn*in.ChanStride
		mv := perChannelVector(&single, 0, b.Slots(), uniform(1))
		t := b.MulPlain(in.CTs[gIn], opts.constant(b, mv, sc.Pm).at(in.CTs[gIn]))
		t = tryRescale(b, t, sc.Pc)
		isolated[j] = rotateRight(b, t, (bOut-bIn)*in.ChanStride)
	})
	// Fold in original (input, channel) order for a bit-identical result.
	for j := range jobs {
		gOut := jobs[j].och / out.CPerCT
		out.CTs[gOut] = accumulate(b, out.CTs[gOut], isolated[j])
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
// its block and adding (no masks needed: invalid slots are zero).
//
// Channels are shifted by opts.Workers goroutines and folded into their
// blocks in serial channel order.
func ToCHW(b hisa.Backend, in *CipherTensor, opts ExecOptions) *CipherTensor {
	if in.Layout == LayoutCHW {
		return in
	}
	out := metaClone(in)
	out.Layout = LayoutCHW
	cPerCT := blockCapacity(in.BatchStride, in.ChanStride)
	out.CPerCT = cPerCT
	out.CTs = make([]hisa.Ciphertext, (in.C+cPerCT-1)/cPerCT)
	shifted := make([]hisa.Ciphertext, in.C)
	parallelFor(opts.workers(), in.C, func(ch int) {
		shifted[ch] = rotateRight(b, in.CTs[ch], ch%cPerCT*in.ChanStride)
	})
	for ch, t := range shifted {
		out.CTs[ch/cPerCT] = accumulate(b, out.CTs[ch/cPerCT], t)
	}
	out.validate(b.Slots())
	return &out
}

// ToHW converts a CHW-layout tensor to HW: each channel is rotated to block
// zero and isolated with a mask (the conversion that costs depth).
//
// Channels are isolated by opts.Workers goroutines.
func ToHW(b hisa.Backend, in *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
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
	mask := opts.constant(b, perChannelVector(&single, 0, b.Slots(), uniform(1)), sc.Pm)
	parallelFor(opts.workers(), in.C, func(ch int) {
		t := rotateRight(b, in.CTs[ch/in.CPerCT], -(ch%in.CPerCT)*in.ChanStride)
		out.CTs[ch] = tryRescale(b, b.MulPlain(t, mask.at(t)), sc.Pc)
	})
	out.validate(b.Slots())
	return &out
}
