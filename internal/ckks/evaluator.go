package ckks

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"chet/internal/ring"
)

// Evaluator executes homomorphic operations. It is safe for concurrent use
// by multiple goroutines: all operations are functional (inputs are never
// mutated, except the documented in-place Rescale/DropToLevel family, which
// callers must not race on a shared ciphertext), keys are read-only after
// construction, and per-operation scratch rows are drawn from an internal
// sync.Pool. For workloads that prefer fully isolated scratch state (one
// evaluator per worker goroutine), ShallowCopy creates an independent
// evaluator sharing the same keys at negligible cost.
type Evaluator struct {
	params *Parameters
	rlk    *RelinearizationKey
	rtks   *RotationKeySet

	// scratch pools N-length coefficient rows so concurrent operations
	// never share a buffer.
	scratch *sync.Pool

	// workers bounds intra-op parallelism (hoisted decomposition digits,
	// ModUp and ModDown rows and key-switch inner-product rows are
	// partitioned across this many goroutines). 0 or 1 means serial; set via
	// SetIntraOpWorkers. Atomic because concurrent inferences share one
	// evaluator and each hands it its bound.
	workers atomic.Int32

	// modDowns counts the key-switch accumulators modDown has divided by
	// the special modulus (ModDowns).
	modDowns atomic.Int64

	// monoI is the NTT form of the monomial X^(N/2), precomputed at
	// construction and shared (read-only) across ShallowCopy. Every slot's
	// evaluation point is an odd power 5^j of the primitive 2N-th root, and
	// 5^j = 1 (mod 4), so X^(N/2) evaluates to exactly +i in every slot:
	// multiplying by it is an exact, key-switch-free multiply-by-i.
	monoI *ring.Poly
}

// NewEvaluator creates an evaluator. rlk may be nil if no
// ciphertext-ciphertext multiplications are performed; rtks may be nil if no
// rotations are performed.
func NewEvaluator(params *Parameters, rlk *RelinearizationKey, rtks *RotationKeySet) *Evaluator {
	n := params.N()
	r := params.Ring()
	mono := r.NewPoly(r.MaxLevel())
	for i := range mono.Coeffs {
		mono.Coeffs[i][n/2] = 1
	}
	r.NTT(mono, r.MaxLevel())
	return &Evaluator{
		params: params,
		rlk:    rlk,
		rtks:   rtks,
		scratch: &sync.Pool{New: func() any {
			return make([]uint64, n)
		}},
		monoI: mono,
	}
}

// SetIntraOpWorkers sets how many goroutines a single operation may use for
// its decomposition and inner-product loops. Values <= 1 select the serial
// path. Safe to call while operations run: an operation in flight finishes
// with the bound it started each stage with. Returns the evaluator for
// chaining.
func (ev *Evaluator) SetIntraOpWorkers(w int) *Evaluator {
	ev.workers.Store(int32(w))
	return ev
}

// ModDowns reports how many key-switch accumulators the evaluator has
// divided by the special modulus: two per rotation, conjugation or
// unfused relinearization, and two per RotSum output however many rotations
// it sums. The fused relinearize-rescale divides inside its rescale pass and
// is not counted.
func (ev *Evaluator) ModDowns() int64 { return ev.modDowns.Load() }

// ShallowCopy returns an evaluator that shares this evaluator's keys and
// parameters but owns independent scratch pools.
// A single Evaluator is already goroutine-safe; ShallowCopy exists for
// callers that want explicit per-worker evaluators (e.g. to avoid pool
// contention on very wide fan-out).
func (ev *Evaluator) ShallowCopy() *Evaluator {
	cp := NewEvaluator(ev.params, ev.rlk, ev.rtks)
	cp.workers.Store(ev.workers.Load())
	return cp
}

// getRow leases an N-length scratch row; putRow returns it.
func (ev *Evaluator) getRow() []uint64  { return ev.scratch.Get().([]uint64) }
func (ev *Evaluator) putRow(r []uint64) { ev.scratch.Put(r) }

// getAcc leases a full-height scratch poly from the ring arena (contents
// undefined); putAcc returns it. Full height covers the extended key-switch
// basis {q_0..q_L, p_1..p_α}, so one pool serves accumulators and digits at
// every level.
func (ev *Evaluator) getAcc() *ring.Poly {
	r := ev.params.Ring()
	return r.GetPoly(r.MaxLevel())
}
func (ev *Evaluator) putAcc(p *ring.Poly) { ev.params.Ring().PutPoly(p) }

// forEach partitions [0, count) across the evaluator's intra-op workers.
// With workers <= 1 (the default) it is a plain loop; the parallel split is
// a stride partition, so iteration order within a worker is ascending and
// results are bit-identical to serial as long as iterations are independent.
func (ev *Evaluator) forEach(count int, fn func(i int)) {
	w := int(ev.workers.Load())
	if w > count {
		w = count
	}
	if w <= 1 {
		for i := 0; i < count; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for t := 0; t < w; t++ {
		go func(t int) {
			defer wg.Done()
			for i := t; i < count; i += w {
				fn(i)
			}
		}(t)
	}
	wg.Wait()
}

// Recycle returns ct's limb storage to the ring arena and clears the
// ciphertext. Use it on hot paths (benchmark loops, kernel temporaries) once
// a ciphertext is dead; the next operation at the same level reuses the
// buffers instead of allocating. The ciphertext — and any alias of its
// component polys — must not be used afterwards. Recycling is always
// optional: unrecycled ciphertexts are reclaimed by the GC.
func (ev *Evaluator) Recycle(ct *Ciphertext) {
	if ct == nil {
		return
	}
	r := ev.params.Ring()
	r.PutPoly(ct.C0)
	r.PutPoly(ct.C1)
	r.PutPoly(ct.C2)
	ct.C0, ct.C1, ct.C2 = nil, nil, nil
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

const scaleTolerance = 1e-6

func sameScale(a, b float64) bool {
	return math.Abs(a-b) <= scaleTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// leaseAt leases an arena-backed copy of src truncated to the given level.
// Only rows 0..level are copied — a level drop never pays for rows it is
// about to discard. Pair with releaseAligned/Recycle.
func (ev *Evaluator) leaseAt(src *Ciphertext, level int) *Ciphertext {
	r := ev.params.Ring()
	out := &Ciphertext{C0: r.GetPoly(level), C1: r.GetPoly(level), Scale: src.Scale, Lvl: level}
	out.C0.CopyLevel(src.C0, level)
	out.C1.CopyLevel(src.C1, level)
	if src.C2 != nil {
		out.C2 = r.GetPoly(level)
		out.C2.CopyLevel(src.C2, level)
	}
	return out
}

// copyCt leases an arena-backed copy of ct at its own level.
func (ev *Evaluator) copyCt(ct *Ciphertext) *Ciphertext { return ev.leaseAt(ct, ct.Lvl) }

// alignLevels brings a and b to a common level, leasing truncated arena
// copies for whichever input sits higher. The inputs are never modified.
// Callers must hand the pair to releaseAligned when done.
func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext, int) {
	level := a.Lvl
	if b.Lvl < level {
		level = b.Lvl
	}
	ac, bc := a, b
	if a.Lvl > level {
		ac = ev.leaseAt(a, level)
	}
	if b.Lvl > level {
		bc = ev.leaseAt(b, level)
	}
	return ac, bc, level
}

// releaseAligned recycles the copies alignLevels leased (a no-op for inputs
// that were already at the common level and passed through).
func (ev *Evaluator) releaseAligned(a, ac, b, bc *Ciphertext) {
	if ac != a {
		ev.Recycle(ac)
	}
	if bc != b {
		ev.Recycle(bc)
	}
}

// dropPolys truncates every component of ct to level in place.
func dropPolys(ct *Ciphertext, level int) {
	ct.C0.DropLevel(level)
	ct.C1.DropLevel(level)
	if ct.C2 != nil {
		ct.C2.DropLevel(level)
	}
	ct.Lvl = level
}

// DropToLevel reduces ct to the given level in place (a no-op if already
// there). Dropping levels only shrinks the modulus; the message is
// unchanged.
func (ev *Evaluator) DropToLevel(ct *Ciphertext, level int) {
	if level > ct.Lvl {
		panic(fmt.Sprintf("ckks: cannot raise level %d to %d", ct.Lvl, level))
	}
	if level == ct.Lvl {
		return
	}
	dropPolys(ct, level)
}

// Add returns a + b. Degree-2 operands (lazy products) add componentwise; a
// missing C2 on one side counts as zero.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Add: %g vs %g", a.Scale, b.Scale))
	}
	ac, bc, level := ev.alignLevels(a, b)
	r := ev.params.Ring()
	out := &Ciphertext{C0: r.GetPoly(level), C1: r.GetPoly(level), Scale: ac.Scale, Lvl: level}
	r.Add(ac.C0, bc.C0, out.C0, level)
	r.Add(ac.C1, bc.C1, out.C1, level)
	if ac.C2 != nil || bc.C2 != nil {
		out.C2 = r.GetPoly(level)
		switch {
		case bc.C2 == nil:
			out.C2.CopyLevel(ac.C2, level)
		case ac.C2 == nil:
			out.C2.CopyLevel(bc.C2, level)
		default:
			r.Add(ac.C2, bc.C2, out.C2, level)
		}
	}
	ev.releaseAligned(a, ac, b, bc)
	return out
}

// Sub returns a - b, with the same degree-2 handling as Add.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Sub: %g vs %g", a.Scale, b.Scale))
	}
	ac, bc, level := ev.alignLevels(a, b)
	r := ev.params.Ring()
	out := &Ciphertext{C0: r.GetPoly(level), C1: r.GetPoly(level), Scale: ac.Scale, Lvl: level}
	r.Sub(ac.C0, bc.C0, out.C0, level)
	r.Sub(ac.C1, bc.C1, out.C1, level)
	switch {
	case ac.C2 == nil && bc.C2 == nil:
	case bc.C2 == nil:
		out.C2 = r.GetPoly(level)
		out.C2.CopyLevel(ac.C2, level)
	case ac.C2 == nil:
		out.C2 = r.GetPolyZero(level)
		r.Sub(out.C2, bc.C2, out.C2, level)
	default:
		out.C2 = r.GetPoly(level)
		r.Sub(ac.C2, bc.C2, out.C2, level)
	}
	ev.releaseAligned(a, ac, b, bc)
	return out
}

// AddPlain returns ct + pt. The plaintext must be at the same scale and at a
// level >= the ciphertext's.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in AddPlain: %g vs %g", ct.Scale, pt.Scale))
	}
	if pt.Lvl < ct.Lvl {
		panic("ckks: plaintext level below ciphertext level")
	}
	r := ev.params.Ring()
	level := ct.Lvl
	out := ev.copyCt(ct)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ro, rp := out.C0.Coeffs[i], pt.Value.Coeffs[i]
		for j := range ro {
			ro[j] = ring.AddMod(ro[j], rp[j], q)
		}
	}
	return out
}

// SubPlain returns ct - pt.
func (ev *Evaluator) SubPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in SubPlain: %g vs %g", ct.Scale, pt.Scale))
	}
	if pt.Lvl < ct.Lvl {
		panic("ckks: plaintext level below ciphertext level")
	}
	r := ev.params.Ring()
	level := ct.Lvl
	out := ev.copyCt(ct)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ro, rp := out.C0.Coeffs[i], pt.Value.Coeffs[i]
		for j := range ro {
			ro[j] = ring.SubMod(ro[j], rp[j], q)
		}
	}
	return out
}

// AddScalar returns ct + x (x added to every slot). The constant is encoded
// at the ciphertext's scale, which costs no level. Scales beyond 62 bits
// (which occur legitimately between rescaling opportunities) take an
// arbitrary-precision path.
func (ev *Evaluator) AddScalar(ct *Ciphertext, x float64) *Ciphertext {
	r := ev.params.Ring()
	level := ct.Lvl
	out := ev.copyCt(ct)
	residues := ev.getRow()
	defer ev.putRow(residues)
	scalarResiduesInto(residues, x, ct.Scale, r, level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		cq := residues[i]
		// A constant polynomial is constant in the NTT domain as well.
		ro := out.C0.Coeffs[i]
		for j := range ro {
			ro[j] = ring.AddMod(ro[j], cq, q)
		}
	}
	return out
}

// AddScalarC adds the complex constant z to every slot without a plaintext
// encoding. The slot-constant vector z = a+bi is the two-term polynomial
// round(a·Δ) + round(b·Δ)·X^(N/2) — the monomial evaluates to +i in every
// slot (see MulByI) — and both terms have closed-form NTT images: a constant
// is itself in every NTT coefficient, and the monomial's image is the
// precomputed monoI table. The addition is therefore pointwise on C0 alone —
// no FFT, no NTT — and exact where the generic encode path rounds through a
// float transform.
func (ev *Evaluator) AddScalarC(ct *Ciphertext, z complex128) *Ciphertext {
	if imag(z) == 0 {
		return ev.AddScalar(ct, real(z))
	}
	r := ev.params.Ring()
	level := ct.Lvl
	out := ev.copyCt(ct)
	reRes := ev.getRow()
	imRes := ev.getRow()
	defer ev.putRow(reRes)
	defer ev.putRow(imRes)
	scalarResiduesInto(reRes, real(z), ct.Scale, r, level)
	scalarResiduesInto(imRes, imag(z), ct.Scale, r, level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ra, rb := reRes[i], imRes[i]
		rs := ring.MForm(rb, q)
		ro := out.C0.Coeffs[i]
		mi := ev.monoI.Coeffs[i]
		for j := range ro {
			ro[j] = ring.AddMod(ro[j], ring.AddMod(ra, ring.MulModShoup(mi[j], rb, rs, q), q), q)
		}
	}
	return out
}

// scalarResiduesInto writes round(x*scale) mod q_i into out[i] for
// i <= level, using int64 arithmetic when the constant fits and big integers
// otherwise. out must have at least level+1 entries; scratch rows qualify.
func scalarResiduesInto(out []uint64, x, scale float64, r *ring.Ring, level int) {
	c := math.Round(x * scale)
	if math.Abs(c) < (1 << 62) {
		ci := int64(c)
		for i := 0; i <= level; i++ {
			m := r.Moduli[i]
			if ci >= 0 {
				out[i] = m.Reduce128(0, uint64(ci))
			} else {
				out[i] = ring.NegMod(m.Reduce128(0, uint64(-ci)), m.Q)
			}
		}
		return
	}
	bf := new(big.Float).SetPrec(256).SetFloat64(x)
	bf.Mul(bf, new(big.Float).SetPrec(256).SetFloat64(scale))
	bi, _ := bf.Int(nil)
	tmp := new(big.Int)
	for i := 0; i <= level; i++ {
		q := new(big.Int).SetUint64(r.Moduli[i].Q)
		out[i] = tmp.Mod(bi, q).Uint64()
	}
}

// MulPlain returns ct * pt (slotwise). The result scale is the product of
// the scales; no rescaling is performed.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if pt.Lvl < ct.Lvl {
		panic("ckks: plaintext level below ciphertext level")
	}
	r := ev.params.Ring()
	level := ct.Lvl
	out := &Ciphertext{
		C0:    r.GetPoly(level),
		C1:    r.GetPoly(level),
		Scale: ct.Scale * pt.Scale,
		Lvl:   level,
	}
	r.MulCoeffs(ct.C0, pt.Value, out.C0, level)
	r.MulCoeffs(ct.C1, pt.Value, out.C1, level)
	if ct.C2 != nil {
		out.C2 = r.GetPoly(level)
		r.MulCoeffs(ct.C2, pt.Value, out.C2, level)
	}
	return out
}

// MulScalar returns ct * x with the scalar encoded at scale f. The result
// scale is ct.Scale * f. Encoding a scalar as the constant polynomial
// round(x*f) multiplies every slot without a full plaintext encoding.
func (ev *Evaluator) MulScalar(ct *Ciphertext, x float64, f float64) *Ciphertext {
	// Exact-unit shortcut: when the encoded constant round(x*f) is 1 the
	// multiplication is the identity on every coefficient, so only the scale
	// moves. The complex-packing kernels lean on this — their /4 corrections
	// multiply by 0.25 at factor 4, which encodes as exactly 1.
	if math.Round(x*f) == 1 {
		out := ev.copyCt(ct)
		out.Scale = ct.Scale * f
		return out
	}
	r := ev.params.Ring()
	level := ct.Lvl
	out := &Ciphertext{
		C0:    r.GetPoly(level),
		C1:    r.GetPoly(level),
		Scale: ct.Scale * f,
		Lvl:   level,
	}
	if ct.C2 != nil {
		out.C2 = r.GetPoly(level)
	}
	residues := ev.getRow()
	defer ev.putRow(residues)
	scalarResiduesInto(residues, x, f, r, level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		cq := residues[i]
		cs := ring.MForm(cq, q)
		pairs := [][2][]uint64{
			{ct.C0.Coeffs[i], out.C0.Coeffs[i]},
			{ct.C1.Coeffs[i], out.C1.Coeffs[i]},
		}
		if ct.C2 != nil {
			pairs = append(pairs, [2][]uint64{ct.C2.Coeffs[i], out.C2.Coeffs[i]})
		}
		for _, pair := range pairs {
			src, dst := pair[0], pair[1]
			for j := range dst {
				dst[j] = ring.MulModShoup(src[j], cq, cs, q)
			}
		}
	}
	return out
}

// MulByI multiplies every slot by the imaginary unit i, exactly and without
// consuming scale: the multiplier is the ring monomial X^(N/2) (see monoI),
// so the product is a plain NTT pointwise multiply — no encoding, no
// rounding, no key switch.
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	r := ev.params.Ring()
	level := ct.Lvl
	out := &Ciphertext{
		C0:    r.GetPoly(level),
		C1:    r.GetPoly(level),
		Scale: ct.Scale,
		Lvl:   level,
	}
	r.MulCoeffs(ct.C0, ev.monoI, out.C0, level)
	r.MulCoeffs(ct.C1, ev.monoI, out.C1, level)
	if ct.C2 != nil {
		out.C2 = r.GetPoly(level)
		r.MulCoeffs(ct.C2, ev.monoI, out.C2, level)
	}
	return out
}

// Mul returns a * b, relinearized back to degree 1. The result scale is the
// product of the input scales; callers rescale afterwards.
func (ev *Evaluator) Mul(a, b *Ciphertext) *Ciphertext {
	d := ev.MulNoRelin(a, b)
	out := ev.Relinearize(d)
	// Relinearize leaves its input untouched (callers of the public op own
	// their ciphertexts); the tensor intermediate is ours to return.
	ev.Recycle(d)
	return out
}

// MulNoRelin returns a * b as a degree-2 ciphertext, leaving the
// relinearization key-switch to a later explicit Relinearize. Linear
// operations (Add, Sub, MulScalar, MulByI) act componentwise on degree-2
// ciphertexts, so several products that are only combined linearly can
// share a single relinearization (lazy relinearization).
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) *Ciphertext {
	if a.C2 != nil || b.C2 != nil {
		panic("ckks: MulNoRelin operands must be degree 1 (relinearize first)")
	}
	ac, bc, level := ev.alignLevels(a, b)
	r := ev.params.Ring()

	d0 := r.GetPoly(level)
	d1 := r.GetPoly(level)
	d2 := r.GetPoly(level)
	r.MulCoeffs(ac.C0, bc.C0, d0, level)
	r.MulCoeffs(ac.C0, bc.C1, d1, level)
	r.MulCoeffsAndAdd(ac.C1, bc.C0, d1, level)
	r.MulCoeffs(ac.C1, bc.C1, d2, level)

	scale := ac.Scale * bc.Scale
	ev.releaseAligned(a, ac, b, bc)
	return &Ciphertext{C0: d0, C1: d1, C2: d2, Scale: scale, Lvl: level}
}

// Relinearize key-switches a degree-2 ciphertext's C2 component back into
// (C0, C1). Degree-1 inputs pass through unchanged.
func (ev *Evaluator) Relinearize(ct *Ciphertext) *Ciphertext {
	if ct.C2 == nil {
		return ct
	}
	swk := ev.relinKey(ct.Lvl)
	dec := ev.hoistedDecompose(ct.C2, ct.Lvl)
	d0, d1 := ev.keySwitchFromDecomp(dec, nil, swk, ct.C0, ct.C1)
	dec.Release()
	return &Ciphertext{C0: d0, C1: d1, Scale: ct.Scale, Lvl: ct.Lvl}
}

// RotateLeft rotates the slot vector left by k positions (slot i of the
// result holds slot i+k of the input). Requires the corresponding Galois
// key.
func (ev *Evaluator) RotateLeft(ct *Ciphertext, k int) *Ciphertext {
	slots := ev.params.Slots()
	k = ((k % slots) + slots) % slots
	if k == 0 {
		return ev.copyCt(ct)
	}
	galEl := ev.params.Ring().GaloisElementForRotation(k)
	return ev.applyGalois(ct, galEl)
}

// RotateRight rotates the slot vector right by k positions.
func (ev *Evaluator) RotateRight(ct *Ciphertext, k int) *Ciphertext {
	return ev.RotateLeft(ct, -k)
}

// Conjugate applies complex conjugation to every slot.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	return ev.applyGalois(ct, ev.params.Ring().GaloisElementConjugate())
}

// applyGalois routes through the hoisted key-switch path (see hoisting.go)
// with a single-use decomposition, so per-amount rotations and hoisted
// batches produce bit-identical ciphertexts.
func (ev *Evaluator) applyGalois(ct *Ciphertext, galEl uint64) *Ciphertext {
	if ct.C2 != nil {
		panic("ckks: cannot apply a Galois automorphism to a degree-2 ciphertext (relinearize first)")
	}
	dec := ev.hoistedDecompose(ct.C1, ct.Lvl)
	out := ev.applyGaloisHoisted(ct, dec, galEl)
	dec.Release()
	return out
}

// Rescale divides ct by its top chain prime, dropping one level and
// reducing the scale accordingly. It panics at level 0.
func (ev *Evaluator) Rescale(ct *Ciphertext) {
	level := ct.Lvl
	if level == 0 {
		panic("ckks: cannot rescale below level 0")
	}
	r := ev.params.Ring()
	qTop := r.Moduli[level].Q
	halfQ := qTop >> 1
	n := r.N

	tmp := ev.getRow()
	top := ev.getRow()
	defer ev.putRow(tmp)
	defer ev.putRow(top)
	qInvRow := ev.params.rescaleQInv[level]
	qInvSRow := ev.params.rescaleQInvShoup[level]
	polys := [3]*ring.Poly{ct.C0, ct.C1, ct.C2}
	for _, c := range polys {
		if c == nil {
			continue
		}
		copy(top, c.Coeffs[level])
		r.InvNTTSingle(level, top)
		for j := 0; j < level; j++ {
			mj := r.Moduli[j]
			qj := mj.Q
			for k := 0; k < n; k++ {
				v := top[k]
				if v > halfQ {
					tmp[k] = ring.NegMod(mj.Reduce128(0, qTop-v), qj)
				} else {
					tmp[k] = mj.Reduce128(0, v)
				}
			}
			r.NTTSingle(j, tmp)
			qInv, qInvS := qInvRow[j], qInvSRow[j]
			rowJ := c.Coeffs[j]
			for k := 0; k < n; k++ {
				rowJ[k] = ring.MulModShoup(ring.SubMod(rowJ[k], tmp[k], qj), qInv, qInvS, qj)
			}
		}
		c.DropLevel(level - 1)
	}
	ct.Scale /= float64(qTop)
	ct.Lvl--
}

// RescaleMany rescales n times.
func (ev *Evaluator) RescaleMany(ct *Ciphertext, n int) {
	for i := 0; i < n; i++ {
		ev.Rescale(ct)
	}
}
