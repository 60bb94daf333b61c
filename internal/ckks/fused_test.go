package ckks

import (
	"testing"
)

// equalCiphertexts reports whether a and b agree bit-for-bit on every
// coefficient row up to their level, plus scale and level themselves.
func equalCiphertexts(t *testing.T, a, b *Ciphertext) {
	t.Helper()
	if a.Lvl != b.Lvl {
		t.Fatalf("level mismatch: %d vs %d", a.Lvl, b.Lvl)
	}
	if a.Scale != b.Scale {
		t.Fatalf("scale mismatch: %g vs %g", a.Scale, b.Scale)
	}
	if (a.C2 == nil) != (b.C2 == nil) {
		t.Fatalf("degree mismatch")
	}
	cmp := func(name string, pa, pb [][]uint64) {
		for i := 0; i <= a.Lvl; i++ {
			for k := range pa[i] {
				if pa[i][k] != pb[i][k] {
					t.Fatalf("%s row %d coeff %d: %d vs %d", name, i, k, pa[i][k], pb[i][k])
				}
			}
		}
	}
	cmp("C0", a.C0.Coeffs, b.C0.Coeffs)
	cmp("C1", a.C1.Coeffs, b.C1.Coeffs)
	if a.C2 != nil {
		cmp("C2", a.C2.Coeffs, b.C2.Coeffs)
	}
}

// TestRelinearizeRescaleMatchesUnfused pins the fused op's contract: at
// every level down to 1, the fused pass is bit-identical to relinearize
// followed by rescale.
func TestRelinearizeRescaleMatchesUnfused(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	scale := tc.params.DefaultScale()
	slots := tc.params.Slots()

	cta := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 41), scale, tc.params.MaxLevel()))
	ctb := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 42), scale, tc.params.MaxLevel()))

	for level := tc.params.MaxLevel(); level >= 1; level-- {
		d2 := ev.MulNoRelin(cta, ctb)

		unfused := ev.Relinearize(d2)
		ev.Rescale(unfused)

		fused := ev.RelinearizeRescale(d2)
		equalCiphertexts(t, fused, unfused)

		// The input must come through untouched: run the fused op twice
		// and require identical output.
		again := ev.RelinearizeRescale(d2)
		equalCiphertexts(t, again, fused)

		if level > 1 {
			next := ev.Relinearize(d2)
			ev.Rescale(next)
			cta, ctb = next, next.CopyNew()
		}
	}
}

// TestRelinearizeRescaleDegreeOne checks the degree-1 fallback: no key
// switch, just a functional rescale.
func TestRelinearizeRescaleDegreeOne(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	scale := tc.params.DefaultScale()
	ct := tc.encr.Encrypt(tc.enc.Encode(randomVector(tc.params.Slots(), 1, 43), scale, tc.params.MaxLevel()))
	ct = ev.MulScalar(ct, 3.0, scale)

	want := ct.CopyNew()
	ev.Rescale(want)
	got := ev.RelinearizeRescale(ct)
	equalCiphertexts(t, got, want)
	if ct.Lvl != tc.params.MaxLevel() {
		t.Fatal("degree-1 fused rescale mutated its input")
	}
}

// TestRelinearizeRescaleWithWorkers pins that intra-op parallelism does not
// change a single bit of RelinearizeRescale or of Rescale (degree 1 and
// degree 2) at any level, and that neither leaves an arena lease behind.
func TestRelinearizeRescaleWithWorkers(t *testing.T) {
	tc := newTestContext(t)
	serial := NewEvaluator(tc.params, tc.rlk, nil)
	par := NewEvaluator(tc.params, tc.rlk, nil).SetIntraOpWorkers(4)
	r := tc.params.Ring()
	scale := tc.params.DefaultScale()
	slots := tc.params.Slots()
	cta := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 44), scale, tc.params.MaxLevel()))
	ctb := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 45), scale, tc.params.MaxLevel()))

	for level := tc.params.MaxLevel(); level >= 1; level-- {
		a, b := serial.leaseAt(cta, level), serial.leaseAt(ctb, level)
		d2 := serial.MulNoRelin(a, b)
		leased := r.OutstandingPolys()
		fused, fusedPar := serial.RelinearizeRescale(d2), par.RelinearizeRescale(d2)
		equalCiphertexts(t, fused, fusedPar)
		for _, in := range []*Ciphertext{a, d2} {
			x, y := in.CopyNew(), in.CopyNew()
			serial.Rescale(x)
			par.Rescale(y)
			equalCiphertexts(t, x, y)
		}
		serial.Recycle(fused)
		serial.Recycle(fusedPar)
		if got := r.OutstandingPolys(); got != leased {
			t.Fatalf("level %d: %d arena polys still leased after the rescales", level, got-leased)
		}
		for _, ct := range []*Ciphertext{a, b, d2} {
			serial.Recycle(ct)
		}
	}
}

// TestRecycleRoundTrip checks that recycled ciphertext storage is reused
// without corrupting subsequent results.
func TestRecycleRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	scale := tc.params.DefaultScale()
	slots := tc.params.Slots()
	cta := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 46), scale, tc.params.MaxLevel()))
	ctb := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 47), scale, tc.params.MaxLevel()))

	want := ev.RelinearizeRescale(ev.MulNoRelin(cta, ctb))
	for i := 0; i < 4; i++ {
		d2 := ev.MulNoRelin(cta, ctb)
		got := ev.RelinearizeRescale(d2)
		ev.Recycle(d2)
		equalCiphertexts(t, got, want)
		ev.Recycle(got)
	}
}
