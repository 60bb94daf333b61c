package hisa

import (
	"math"
	"math/big"
	"testing"
)

// equalRNSCiphertexts compares two RNS ciphertext handles bit-for-bit.
func equalRNSCiphertexts(t *testing.T, b *RNSBackend, name string, got, want Ciphertext) {
	t.Helper()
	g, w := b.ct(got), b.ct(want)
	if g.Lvl != w.Lvl {
		t.Fatalf("%s: level %d != %d", name, g.Lvl, w.Lvl)
	}
	if g.Scale != w.Scale {
		t.Fatalf("%s: scale %g != %g", name, g.Scale, w.Scale)
	}
	for i, pg := range [][][]uint64{g.C0.Coeffs, g.C1.Coeffs} {
		pw := [][][]uint64{w.C0.Coeffs, w.C1.Coeffs}[i]
		if len(pg) != len(pw) {
			t.Fatalf("%s: poly %d row count %d != %d", name, i, len(pg), len(pw))
		}
		for j := range pg {
			for k := range pg[j] {
				if pg[j][k] != pw[j][k] {
					t.Fatalf("%s: poly %d row %d coeff %d: %d != %d",
						name, i, j, k, pg[j][k], pw[j][k])
				}
			}
		}
	}
}

// TestRNSFusedRescaleParity checks that the backend's fused
// RelinearizeRescale is bit-identical to the unfused Rescale-then-
// Relinearize sequence for every divisor class MaxRescale can hand it:
// trivial (1), a single top prime, and a multi-prime product.
func TestRNSFusedRescaleParity(t *testing.T) {
	b := newRNSTestBackend(t, nil)
	slots := b.Slots()
	va, vb := rv(slots, 2, 11), rv(slots, 2, 12)
	cta := b.Encrypt(b.Encode(va, testScale))
	ctb := b.Encrypt(b.Encode(vb, testScale))

	prod := b.MulNoRelin(cta, ctb) // degree 2, scale testScale².

	t.Run("divisor-1", func(t *testing.T) {
		got := b.RelinearizeRescale(prod, big.NewInt(1))
		want := b.Relinearize(prod)
		equalRNSCiphertexts(t, b, "divisor-1", got, want)
	})

	t.Run("single-drop", func(t *testing.T) {
		ub, _ := big.NewFloat(b.Scale(prod) / testScale).Int(nil)
		d := b.MaxRescale(prod, ub)
		if d.Cmp(big.NewInt(1)) == 0 {
			t.Fatal("MaxRescale returned trivial divisor")
		}
		got := b.RelinearizeRescale(prod, d)
		want := b.Relinearize(b.Rescale(prod, d))
		equalRNSCiphertexts(t, b, "single-drop", got, want)

		// The fused result must still decode to the product.
		dec := b.Decode(b.Decrypt(got))
		for i := 0; i < slots; i++ {
			if diff := math.Abs(dec[i] - va[i]*vb[i]); diff > 1e-2 {
				t.Fatalf("slot %d: |%g - %g| = %g", i, dec[i], va[i]*vb[i], diff)
			}
		}
	})

	t.Run("multi-drop", func(t *testing.T) {
		// A bound above the product of the two top primes forces drops=2,
		// exercising the RescaleMany prefix in front of the fused final drop.
		ub := new(big.Int).Lsh(big.NewInt(1), 81)
		d := b.MaxRescale(prod, ub)
		one := big.NewInt(1)
		top := new(big.Int).SetUint64(b.params.Qi(b.LevelOf(prod)))
		if d.Cmp(one) == 0 || d.Cmp(top) == 0 {
			t.Fatalf("MaxRescale(%v) = %v; want a two-prime product", ub, d)
		}
		got := b.RelinearizeRescale(prod, d)
		want := b.Relinearize(b.Rescale(prod, d))
		equalRNSCiphertexts(t, b, "multi-drop", got, want)
	})

	t.Run("degree-1", func(t *testing.T) {
		// Fused on an already-relinearized ciphertext degrades to a rescale.
		flat := b.Relinearize(prod)
		ub, _ := big.NewFloat(b.Scale(flat) / testScale).Int(nil)
		d := b.MaxRescale(flat, ub)
		got := b.RelinearizeRescale(flat, d)
		want := b.Rescale(flat, d)
		equalRNSCiphertexts(t, b, "degree-1", got, want)
	})
}

// TestMeterFusedAccounting checks that the Meter forwards the fused
// capability and counts RelinearizeRescale as its two logical instructions.
func TestMeterFusedAccounting(t *testing.T) {
	inner := newRNSTestBackend(t, nil)
	m := NewMeter(inner, nil)

	fr, ok := AsFusedRescale(m)
	if !ok {
		t.Fatal("AsFusedRescale should discover the capability through a Meter")
	}

	slots := m.Slots()
	cta := m.Encrypt(m.Encode(rv(slots, 2, 21), testScale))
	ctb := m.Encrypt(m.Encode(rv(slots, 2, 22), testScale))
	prod := m.MulNoRelin(cta, ctb)

	ub, _ := big.NewFloat(m.Scale(prod) / testScale).Int(nil)
	d := m.MaxRescale(prod, ub)
	fr.RelinearizeRescale(prod, d)

	c := m.Counts()
	if c[OpMul] != 1 || c[OpRelin] != 1 || c[OpRescale] != 1 {
		t.Fatalf("after fused drop: mul=%d relin=%d rescale=%d; want 1/1/1",
			c[OpMul], c[OpRelin], c[OpRescale])
	}

	// A trivial divisor is a pure relinearization: no rescale tally.
	fr.RelinearizeRescale(prod, big.NewInt(1))
	c = m.Counts()
	if c[OpRelin] != 2 || c[OpRescale] != 1 {
		t.Fatalf("after trivial-divisor fuse: relin=%d rescale=%d; want 2/1",
			c[OpRelin], c[OpRescale])
	}
}

// TestFreeRecyclesIntoArena checks that Free returns a dead handle's limbs
// to the ring arena without corrupting later results: an op repeated after
// freeing its previous output (whose buffers the arena now hands back) must
// be bit-identical to the pinned first run.
func TestFreeRecyclesIntoArena(t *testing.T) {
	b := newRNSTestBackend(t, []int{1})
	slots := b.Slots()
	ct := b.Encrypt(b.Encode(rv(slots, 2, 31), testScale))

	want := b.RotLeft(ct, 1)
	for i := 0; i < 4; i++ {
		got := b.RotLeft(ct, 1)
		equalRNSCiphertexts(t, b, "rot after Free", got, want)
		b.Free(got)
	}

	// Foreign handles and double frees are ignored.
	b.Free(nil)
	b.Free(42)
	freed := b.RotLeft(ct, 1)
	b.Free(freed)
	b.Free(freed)
}

// TestSimBackendLacksFusedRescale pins the capability gate: backends without
// the fused pass must not be discovered as FusedRescaleBackend, so kernels
// fall back to the unfused order.
func TestSimBackendLacksFusedRescale(t *testing.T) {
	if _, ok := AsFusedRescale(NewSimBackend(SimParams{LogN: 10, LogQ: 240, Seed: 7})); ok {
		t.Fatal("sim backend should not expose FusedRescaleBackend")
	}
	if _, ok := AsFusedRescale(NewRefBackend(512)); ok {
		t.Fatal("ref backend should not expose FusedRescaleBackend")
	}
}
