package ckks

import (
	"math"
	"testing"
)

// mulVecs is the slotwise product oracle.
func mulVecs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// TestMulNoRelinDegree2Decrypts: a lazy product carries its C2 component and
// decrypts (via + C2·s²) to the same slotwise product an eager Mul produces.
func TestMulNoRelinDegree2Decrypts(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 2, 40)
	b := randomVector(slots, 2, 41)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()
	cta := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	ctb := tc.encr.Encrypt(tc.enc.Encode(b, scale, level))

	want := mulVecs(a, b)

	d2 := ev.MulNoRelin(cta, ctb)
	if d2.Degree() != 2 {
		t.Fatalf("MulNoRelin degree = %d, want 2", d2.Degree())
	}
	got := tc.enc.Decode(tc.decr.Decrypt(d2))
	if d := maxAbsDiff(want, got); d > 1e-3 {
		t.Fatalf("degree-2 decryption error %g too large", d)
	}

	relin := ev.Relinearize(d2)
	if relin.Degree() != 1 {
		t.Fatalf("Relinearize left degree %d", relin.Degree())
	}
	gotR := tc.enc.Decode(tc.decr.Decrypt(relin))
	if d := maxAbsDiff(want, gotR); d > 1e-3 {
		t.Fatalf("relinearized product error %g too large", d)
	}

	eager := tc.enc.Decode(tc.decr.Decrypt(ev.Mul(cta, ctb)))
	if d := maxAbsDiff(eager, gotR); d > 1e-4 {
		t.Fatalf("lazy and eager products diverge by %g", d)
	}
}

// TestDegree2LinearOpsCommuteWithRelin is the property the kernels' deferred
// relinearization rests on: Add, Sub, MulScalar, MulByI, and Rescale act
// componentwise on degree-2 ciphertexts, so applying them before the single
// Relinearize must decode to the same values as relinearizing each product
// first. (The kernels themselves relinearize before they rescale, in one
// RelinearizeRescale; the property keeps a degree-2 rescale correct.)
func TestDegree2LinearOpsCommuteWithRelin(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 2, 42)
	b := randomVector(slots, 2, 43)
	c := randomVector(slots, 2, 44)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()
	cta := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	ctb := tc.encr.Encrypt(tc.enc.Encode(b, scale, level))
	ctc := tc.encr.Encrypt(tc.enc.Encode(c, scale, level))

	// Lazy: both products stay degree 2 through the linear combination and
	// the rescale; one relinearization at the end.
	lazyFn := func() *Ciphertext {
		p := ev.MulNoRelin(cta, ctb)
		q := ev.MulNoRelin(cta, ctc)
		s := ev.Add(p, ev.MulByI(q))
		s = ev.Sub(s, ev.MulByI(q))
		s = ev.MulScalar(s, 0.5, math.Exp2(2))
		ev.Rescale(s)
		return ev.Relinearize(s)
	}
	// Eager: relinearize each product at once, then the same linear ops.
	eagerFn := func() *Ciphertext {
		p := ev.Mul(cta, ctb)
		q := ev.Mul(cta, ctc)
		s := ev.Add(p, ev.MulByI(q))
		s = ev.Sub(s, ev.MulByI(q))
		s = ev.MulScalar(s, 0.5, math.Exp2(2))
		ev.Rescale(s)
		return s
	}

	lazy := lazyFn()
	eager := eagerFn()
	if lazy.Degree() != 1 {
		t.Fatalf("lazy path ended at degree %d", lazy.Degree())
	}
	if lazy.Lvl != eager.Lvl || math.Abs(lazy.Scale/eager.Scale-1) > 1e-12 {
		t.Fatalf("metadata diverges: lazy (lvl %d, scale %g) vs eager (lvl %d, scale %g)",
			lazy.Lvl, lazy.Scale, eager.Lvl, eager.Scale)
	}
	gl := tc.enc.Decode(tc.decr.Decrypt(lazy))
	ge := tc.enc.Decode(tc.decr.Decrypt(eager))
	if d := maxAbsDiff(gl, ge); d > 1e-4 {
		t.Fatalf("lazy and eager orderings diverge by %g", d)
	}
	want := mulVecs(a, b) // + i·q − i·q cancels; then ×0.5
	for i := range want {
		want[i] *= 0.5
	}
	if d := maxAbsDiff(want, gl); d > 1e-3 {
		t.Fatalf("lazy path error %g vs plaintext", d)
	}
}

// TestDegree2Guards pins the three failure modes that must be loud panics
// rather than silent corruption: a Galois automorphism on a degree-2
// ciphertext (the automorphism of s² is not covered by rotation keys), a
// product of an already-degree-2 operand, and relinearization without a key.
func TestDegree2Guards(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	slots := tc.params.Slots()
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()
	ct := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 2, 45), scale, level))
	d2 := ev.MulNoRelin(ct, ct)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Conjugate on degree-2", func() { ev.Conjugate(d2) })
	mustPanic("MulNoRelin with degree-2 operand", func() { ev.MulNoRelin(d2, ct) })
	evNoKey := NewEvaluator(tc.params, nil, nil)
	mustPanic("Relinearize without rlk", func() { evNoKey.Relinearize(d2) })
}
