package htc

import (
	"fmt"
	"math/bits"
	"sync"

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

// rotCache caches rotations of one ciphertext by amount. It is safe for
// concurrent use: each rotation amount is computed exactly once
// (single-flight), so parallel workers sharing a cache never duplicate a
// rotation and the op count matches a serial run.
//
// A kernel that knows its rotation amounts up front registers them with
// planRotations; the first get then executes the whole plan as one
// RotLeftMany batch, which backends with the hisa.RotateManyBackend
// capability serve with one shared hoisted decomposition. Amounts outside
// the plan still take the lazy per-amount path. Because RotLeftMany is
// bit-identical to sequential RotLeft and the plan holds exactly the
// amounts the kernel draws, results and op counts are unchanged.
type rotCache struct {
	b    hisa.Backend
	base hisa.Ciphertext
	mu   sync.Mutex
	m    map[int]*rotEntry

	planned  []int
	planOnce sync.Once
}

type rotEntry struct {
	once sync.Once
	ct   hisa.Ciphertext
}

func newRotCache(b hisa.Backend, base hisa.Ciphertext) *rotCache {
	return &rotCache{b: b, base: base, m: map[int]*rotEntry{}}
}

// planRotations registers the amounts the kernel will request from this
// cache. Zero amounts and duplicates are dropped (get(0) is the base and
// the serial path computes each distinct amount once, so the batch must
// too). Must be called before the first get; later calls are ignored.
func (rc *rotCache) planRotations(ks []int) {
	seen := make(map[int]bool, len(ks))
	for _, k := range ks {
		if k == 0 || seen[k] {
			continue
		}
		seen[k] = true
		rc.planned = append(rc.planned, k)
	}
}

// runPlan executes the registered plan as one batch. It runs inside
// planOnce.Do, so every get blocks until the batch lands and no worker can
// race a per-amount computation against it (which would skew op counts).
func (rc *rotCache) runPlan() {
	if len(rc.planned) == 0 {
		return
	}
	if _, ok := rc.b.(hisa.RotateManyBackend); !ok {
		// No batch capability: stay lazy so unused plans (there are none
		// today, but the contract allows them) cost nothing.
		return
	}
	outs := hisa.RotLeftMany(rc.b, rc.base, rc.planned)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i, k := range rc.planned {
		e, ok := rc.m[k]
		if !ok {
			e = &rotEntry{}
			rc.m[k] = e
		}
		ct := outs[i]
		e.once.Do(func() { e.ct = ct })
	}
}

func (rc *rotCache) get(r int) hisa.Ciphertext {
	if r == 0 {
		return rc.base
	}
	rc.planOnce.Do(rc.runPlan)
	rc.mu.Lock()
	e, ok := rc.m[r]
	if !ok {
		e = &rotEntry{}
		rc.m[r] = e
	}
	rc.mu.Unlock()
	// The rotation runs outside the map lock so workers waiting on other
	// amounts aren't serialized behind it; Once guarantees one flight.
	e.once.Do(func() { e.ct = rc.b.RotLeft(rc.base, r) })
	return e.ct
}

// Conv2D computes a homomorphic convolution with plaintext OIHW filters,
// optional per-channel bias, stride, and symmetric zero padding. The output
// stays on the input's slot grid with strides multiplied by the conv stride
// (reshapes are metadata-only, performed lazily). Figure 4 of the paper is
// the HW instance of this kernel.
func Conv2D(b hisa.Backend, in *CipherTensor, filters, bias *tensor.Tensor, stride, pad int, sc Scales) *CipherTensor {
	return Conv2DOpts(b, in, filters, bias, stride, pad, sc, ExecOptions{})
}

// Conv2DOpts is Conv2D with an execution-options parameter: output channels
// are computed by opts.Workers goroutines and folded into the output in
// serial channel order, so the result is bit-identical to a serial run.
func Conv2DOpts(b hisa.Backend, in *CipherTensor, filters, bias *tensor.Tensor, stride, pad int, sc Scales, opts ExecOptions) *CipherTensor {
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
	// Every filter tap's rotation amount, known before any rotation runs —
	// the hoisting opportunity of the conv kernel.
	amounts := make([]int, 0, kh*kw)
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			amounts = append(amounts, rot(ky, kx))
		}
	}

	if in.Layout == LayoutHW {
		out.CPerCT = 1
		out.CTs = make([]hisa.Ciphertext, cout)
		caches := make([]*rotCache, in.C)
		for ic := range caches {
			caches[ic] = newRotCache(b, in.CTs[ic])
			caches[ic].planRotations(amounts)
		}
		mask := b.Encode(validMask(&out, 0, b.Slots(), 1), sc.Pm)
		parallelFor(opts.workers(), cout, func(oc int) {
			var acc hisa.Ciphertext
			for ic := 0; ic < in.C; ic++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						t := b.MulScalar(caches[ic].get(rot(ky, kx)), filters.At(oc, ic, ky, kx), sc.Pu)
						acc = accumulate(b, acc, t)
					}
				}
			}
			acc = opts.reduce(b, acc, sc.Pc)
			acc = b.MulPlain(acc, mask)
			acc = opts.reduce(b, acc, sc.Pc)
			if bias != nil {
				bv := validMask(&out, 0, b.Slots(), bias.Data[oc])
				acc = addVecBoth(b, out.Complex, acc, bv)
			}
			out.CTs[oc] = acc
		})
		out.validate(b.Slots())
		return &out
	}

	// CHW layout. Channel blocking is computed against one batch lane so the
	// fold and placement rotations below stay lane-local.
	outCPerCT := blockCapacity(in.laneStride(b.Slots()), in.ChanStride)
	out.CPerCT = outCPerCT
	numOutCTs := (cout + outCPerCT - 1) / outCPerCT
	out.CTs = make([]hisa.Ciphertext, numOutCTs)

	numInCTs := in.NumCTs()
	// The block-0 mask of the output grid, used to isolate the folded
	// channel sum before placing it at its output channel block.
	blockMask := metaClone(&out)
	blockMask.C = 1
	blockMask.CPerCT = 1
	mask := b.Encode(validMask(&blockMask, 0, b.Slots(), 1), sc.Pm)

	for g := 0; g < numInCTs; g++ {
		cache := newRotCache(b, in.CTs[g])
		cache.planRotations(amounts)
		// Partial sums of this ciphertext's occupied channels, folded to
		// block 0, masked, and placed at the output channel block.
		chInGroup := min(in.C-g*in.CPerCT, in.CPerCT)
		partial := make([]hisa.Ciphertext, cout)
		// Weight plaintexts per (oc, ky, kx): w[oc][ic][ky][kx] spread over
		// channel ic's whole block (invalid input slots hold zeros, so the
		// product is zero there).
		parallelFor(opts.workers(), cout, func(oc int) {
			var acc hisa.Ciphertext
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					wv := make([]float64, b.Slots())
					ls := in.laneStride(b.Slots())
					for lane := 0; lane < in.Lanes(); lane++ {
						laneBase := lane * ls
						for ci := 0; ci < in.CPerCT; ci++ {
							ic := g*in.CPerCT + ci
							if ic >= in.C {
								break
							}
							w := filters.At(oc, ic, ky, kx)
							base := laneBase + ci*in.ChanStride
							for s := base; s < base+in.ChanStride && s < b.Slots(); s++ {
								wv[s] = w
							}
						}
					}
					t := b.MulPlain(cache.get(rot(ky, kx)), b.Encode(wv, sc.Pw))
					acc = accumulate(b, acc, t)
				}
			}
			acc = opts.reduce(b, acc, sc.Pc)
			// Fold the partial sums of this ciphertext's occupied channels
			// into channel block 0. Rounding the count up is safe here and
			// never dearer than the exact fold: the blocks up to the
			// power-of-two CPerCT lie in this lane and hold zeros.
			acc = foldStrided(b, acc, nextPow2(chInGroup), in.ChanStride)
			acc = b.MulPlain(acc, mask)
			acc = opts.reduce(b, acc, sc.Pc)

			if bOut := oc % outCPerCT; bOut != 0 {
				acc = b.RotRight(acc, bOut*in.ChanStride)
			}
			partial[oc] = acc
		})
		// Fold in serial channel order so the accumulation sequence — and
		// hence every rounding decision — matches a serial run exactly.
		for oc := 0; oc < cout; oc++ {
			gOut := oc / outCPerCT
			out.CTs[gOut] = accumulate(b, out.CTs[gOut], partial[oc])
		}
	}

	if bias != nil {
		for gOut := range out.CTs {
			bv := perChannelVector(&out, gOut, b.Slots(), func(ch int) float64 { return bias.Data[ch] })
			out.CTs[gOut] = addVecBoth(b, out.Complex, out.CTs[gOut], bv)
		}
	}
	out.validate(b.Slots())
	return &out
}

// AvgPool2D applies average pooling (valid padding). The window sum is
// collected with rotations shared across channels; the division by the
// window size is folded into the output mask, so pooling costs a single
// mask-depth multiplication.
func AvgPool2D(b hisa.Backend, in *CipherTensor, window, stride int, sc Scales) *CipherTensor {
	return AvgPool2DOpts(b, in, window, stride, sc, ExecOptions{})
}

// AvgPool2DOpts is AvgPool2D with an execution-options parameter:
// ciphertext groups are pooled by opts.Workers goroutines.
func AvgPool2DOpts(b hisa.Backend, in *CipherTensor, window, stride int, sc Scales, opts ExecOptions) *CipherTensor {
	hout := (in.H-window)/stride + 1
	wout := (in.W-window)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic("htc: pool output would be empty")
	}
	out := metaClone(in)
	out.H, out.W = hout, wout
	out.RowStride = in.RowStride * stride
	out.ColStride = in.ColStride * stride
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())

	inv := 1.0 / float64(window*window)
	// Groups share a mask except a possibly ragged final group. Masks are
	// encoded up front so the worker pool reads the map without locking.
	masks := map[int]hisa.Plaintext{}
	for g := range in.CTs {
		chInGroup := min(in.C-g*in.CPerCT, in.CPerCT)
		if _, ok := masks[chInGroup]; !ok {
			masks[chInGroup] = b.Encode(validMask(&out, g, b.Slots(), inv), sc.Pm)
		}
	}

	windowAmounts := make([]int, 0, window*window)
	for ky := 0; ky < window; ky++ {
		for kx := 0; kx < window; kx++ {
			windowAmounts = append(windowAmounts, ky*in.RowStride+kx*in.ColStride)
		}
	}
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		cache := newRotCache(b, in.CTs[g])
		cache.planRotations(windowAmounts)
		var acc hisa.Ciphertext
		for ky := 0; ky < window; ky++ {
			for kx := 0; kx < window; kx++ {
				acc = accumulate(b, acc, cache.get(ky*in.RowStride+kx*in.ColStride))
			}
		}
		acc = b.MulPlain(acc, masks[min(in.C-g*in.CPerCT, in.CPerCT)])
		out.CTs[g] = opts.reduce(b, acc, sc.Pc)
	})
	out.validate(b.Slots())
	return &out
}

// GlobalAvgPool2D averages each channel down to a single value at grid
// position (0, 0) by folding the columns, then the rows (foldStrided).
func GlobalAvgPool2D(b hisa.Backend, in *CipherTensor, sc Scales) *CipherTensor {
	return GlobalAvgPool2DOpts(b, in, sc, ExecOptions{})
}

// GlobalAvgPool2DOpts is GlobalAvgPool2D with an execution-options
// parameter: ciphertext groups are reduced by opts.Workers goroutines.
func GlobalAvgPool2DOpts(b hisa.Backend, in *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
	out := metaClone(in)
	out.H, out.W = 1, 1
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())

	inv := 1.0 / float64(in.H*in.W)
	mask := b.Encode(validMask(&out, 0, b.Slots(), inv), sc.Pm)

	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		acc := foldStrided(b, in.CTs[g], in.W, in.ColStride)
		acc = foldStrided(b, acc, in.H, in.RowStride)
		acc = b.MulPlain(acc, mask)
		out.CTs[g] = opts.reduce(b, acc, sc.Pc)
	})
	out.validate(b.Slots())
	return &out
}

// Activation applies f(x) = a*x^2 + b*x, computed as x*(a*x + b) to spend
// one ciphertext multiplication and one scalar multiplication.
func Activation(b hisa.Backend, in *CipherTensor, a, bb float64, sc Scales) *CipherTensor {
	return ActivationOpts(b, in, a, bb, sc, ExecOptions{})
}

// ActivationOpts is Activation with an execution-options parameter:
// ciphertext groups are transformed by opts.Workers goroutines.
func ActivationOpts(b hisa.Backend, in *CipherTensor, a, bb float64, sc Scales, opts ExecOptions) *CipherTensor {
	out := metaClone(in)
	out.CTs = make([]hisa.Ciphertext, in.NumCTs())
	parallelFor(opts.workers(), len(in.CTs), func(g int) {
		x := in.CTs[g]
		if a == 0 {
			y := b.MulScalar(x, bb, sc.Pu)
			out.CTs[g] = opts.reduce(b, y, sc.Pc)
			return
		}
		var y hisa.Ciphertext
		if in.Complex {
			y = activationPairwise(b, x, a, bb, sc, opts)
		} else {
			t := b.MulScalar(x, a, sc.Pu)
			t = opts.reduce(b, t, sc.Pc)
			// Adding b everywhere is safe: invalid slots of x are zero, so
			// the final product restores the zero invariant.
			t = b.AddScalar(t, bb)
			if lr, ok := hisa.AsLazyRelin(b); ok {
				y = lr.MulNoRelin(t, x)
			} else {
				y = b.Mul(t, x)
			}
		}
		// reduceRelin closes the product: the site's rescale decision and
		// the relinearization run as one fused limb pass on backends that
		// support it, and in the conventional order everywhere else. The
		// complex path's two shared-relin products land here too.
		out.CTs[g] = opts.reduceRelin(b, y, sc.Pc)
	})
	return &out
}

// PolyEval applies a general polynomial activation p(x) = sum c_i x^i by
// Horner's rule: degree-1 ciphertext multiplications plus one scalar
// multiplication. The constant term is added only at valid positions so the
// zero-slot invariant survives.
func PolyEval(b hisa.Backend, in *CipherTensor, coeffs []float64, sc Scales) *CipherTensor {
	return PolyEvalOpts(b, in, coeffs, sc, ExecOptions{})
}

// PolyEvalOpts is PolyEval with an execution-options parameter: ciphertext
// groups are evaluated by opts.Workers goroutines.
func PolyEvalOpts(b hisa.Backend, in *CipherTensor, coeffs []float64, sc Scales, opts ExecOptions) *CipherTensor {
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
			xbar = mustConjugate(b).Conjugate(x)
		}
		// acc = c_d * x, then repeatedly acc = (acc + c_i) * x.
		acc := b.MulScalar(x, coeffs[d], sc.Pu)
		acc = opts.reduce(b, acc, sc.Pc)
		for i := d - 1; i >= 1; i-- {
			// AddScalar touches invalid slots too, but the following
			// multiplication by x (zero there) restores the invariant.
			acc = addScalarBoth(b, in.Complex, acc, coeffs[i])
			if in.Complex {
				acc = mulPairwiseY(b, acc, x, xbar)
				acc = opts.reduce(b, acc, sc.Pc)
			} else {
				if lr, ok := hisa.AsLazyRelin(b); ok {
					acc = lr.MulNoRelin(acc, x)
				} else {
					acc = b.Mul(acc, x)
				}
				acc = opts.reduceRelin(b, acc, sc.Pc)
			}
		}
		if coeffs[0] != 0 {
			cv := perChannelVector(in, g, b.Slots(), func(int) float64 { return coeffs[0] })
			acc = addVecBoth(b, in.Complex, acc, cv)
		}
		out.CTs[g] = acc
	})
	return &out
}

// BatchNorm applies the folded inference-time normalization
// y = gamma[c]*x + beta[c]. In HW layout the per-channel scale is a cheap
// scalar multiplication; in CHW it requires a plaintext vector — the
// layout-dependent cost difference the paper highlights.
func BatchNorm(b hisa.Backend, in *CipherTensor, gamma, beta *tensor.Tensor, sc Scales) *CipherTensor {
	return BatchNormOpts(b, in, gamma, beta, sc, ExecOptions{})
}

// BatchNormOpts is BatchNorm with an execution-options parameter:
// ciphertext groups are normalized by opts.Workers goroutines.
func BatchNormOpts(b hisa.Backend, in *CipherTensor, gamma, beta *tensor.Tensor, sc Scales, opts ExecOptions) *CipherTensor {
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
			t = b.MulPlain(in.CTs[g], b.Encode(gv, sc.Pw))
		}
		t = opts.reduce(b, t, sc.Pc)
		bv := perChannelVector(in, g, b.Slots(), func(ch int) float64 { return beta.Data[ch] })
		t = addVecBoth(b, in.Complex, t, bv)
		out.CTs[g] = t
	})
	return &out
}

// Add computes the elementwise sum of two CipherTensors with identical
// metadata (residual connections).
func Add(b hisa.Backend, x, y *CipherTensor) *CipherTensor {
	return AddOpts(b, x, y, ExecOptions{})
}

// AddOpts is Add with an execution-options parameter: ciphertext groups are
// summed by opts.Workers goroutines.
func AddOpts(b hisa.Backend, x, y *CipherTensor, opts ExecOptions) *CipherTensor {
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
func Concat(b hisa.Backend, sc Scales, ins ...*CipherTensor) *CipherTensor {
	return ConcatOpts(b, sc, ExecOptions{}, ins...)
}

// ConcatOpts is Concat with an execution-options parameter: on the
// mask-and-rotate path, per-channel isolation runs on opts.Workers
// goroutines and the isolated channels are folded into the output in serial
// channel order.
func ConcatOpts(b hisa.Backend, sc Scales, opts ExecOptions, ins ...*CipherTensor) *CipherTensor {
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
		mv := validMask(&single, 0, b.Slots(), 1)
		t := b.MulPlain(in.CTs[gIn], b.Encode(mv, sc.Pm))
		t = opts.reduce(b, t, sc.Pc)
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
func ToCHW(b hisa.Backend, in *CipherTensor) *CipherTensor {
	return ToCHWOpts(b, in, ExecOptions{})
}

// ToCHWOpts is ToCHW with an execution-options parameter: channels are
// shifted by opts.Workers goroutines and folded into their blocks in serial
// channel order.
func ToCHWOpts(b hisa.Backend, in *CipherTensor, opts ExecOptions) *CipherTensor {
	if in.Layout == LayoutCHW {
		return in
	}
	out := metaClone(in)
	out.Layout = LayoutCHW
	cPerCT := blockCapacity(in.laneStride(b.Slots()), in.ChanStride)
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
func ToHW(b hisa.Backend, in *CipherTensor, sc Scales) *CipherTensor {
	return ToHWOpts(b, in, sc, ExecOptions{})
}

// ToHWOpts is ToHW with an execution-options parameter: channels are
// isolated by opts.Workers goroutines, and the conversion's rescale site
// consults the scale policy like every kernel site.
func ToHWOpts(b hisa.Backend, in *CipherTensor, sc Scales, opts ExecOptions) *CipherTensor {
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
	mask := b.Encode(validMask(&single, 0, b.Slots(), 1), sc.Pm)
	parallelFor(opts.workers(), in.C, func(ch int) {
		t := rotateRight(b, in.CTs[ch/in.CPerCT], -(ch%in.CPerCT)*in.ChanStride)
		out.CTs[ch] = opts.reduce(b, b.MulPlain(t, mask), sc.Pc)
	})
	out.validate(b.Slots())
	return &out
}
