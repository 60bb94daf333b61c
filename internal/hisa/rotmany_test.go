package hisa

import (
	"testing"

	"chet/internal/ckks"
)

// ctBitsEqual compares two RNS ciphertexts for bit identity.
func ctBitsEqual(a, b Ciphertext) bool {
	ca, cb := a.(*ckks.Ciphertext), b.(*ckks.Ciphertext)
	if ca.Lvl != cb.Lvl || ca.Scale != cb.Scale {
		return false
	}
	for i := range ca.C0.Coeffs {
		for j := range ca.C0.Coeffs[i] {
			if ca.C0.Coeffs[i][j] != cb.C0.Coeffs[i][j] || ca.C1.Coeffs[i][j] != cb.C1.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRotLeftManyMatchesSequential checks that the hoisted batch path on
// the RNS backend is bit-identical to per-amount RotLeft, including the
// zero amount and amounts with no exact key (which decompose into several
// power-of-two steps and take the fallback path).
func TestRotLeftManyMatchesSequential(t *testing.T) {
	b := newRNSTestBackend(t, []int{1, 2, 4, 8, 100})
	slots := b.Slots()
	ct := b.Encrypt(b.Encode(rv(slots, 4, 31), testScale))

	// 13=1+4+8 and 3=1+2 have no exact keys: multi-step power-of-two
	// fallback. 0 and slots are identity rotations; -(slots-8) aliases 8.
	ks := []int{0, 1, 2, 4, 8, 100, 13, 3, slots, -(slots - 8)}
	batch := RotLeftMany(b, ct, ks)
	if len(batch) != len(ks) {
		t.Fatalf("got %d outputs for %d amounts", len(batch), len(ks))
	}
	for i, k := range ks {
		want := b.RotLeft(ct, k)
		if !ctBitsEqual(batch[i], want) {
			t.Fatalf("RotLeftMany k=%d differs from RotLeft", k)
		}
	}
}

// TestRotLeftManyThroughMeter checks that the Meter exposes the batch
// capability transparently: outputs stay bit-identical and the rotation
// tally equals what the equivalent RotLeft sequence would record (primitive
// steps, identity rotations free).
func TestRotLeftManyThroughMeter(t *testing.T) {
	b := newRNSTestBackend(t, []int{1, 2, 8})
	slots := b.Slots()
	// The meter mirrors the backend's own decomposition over its
	// provisioned keys.
	keyed := map[int]bool{1: true, 2: true, 8: true}
	stepsOf := func(x int) int {
		return len(RotationSteps(x, slots, func(k int) bool { return keyed[k] }))
	}
	m := NewMeter(b, stepsOf)
	ct := m.Encrypt(m.Encode(rv(slots, 4, 33), testScale))

	ks := []int{0, 1, 2, 8, 3} // 3 = 1+2: two-step fallback
	batch := RotLeftMany(m, ct, ks)
	for i, k := range ks {
		want := b.RotLeft(ct, k)
		if !ctBitsEqual(batch[i], want) {
			t.Fatalf("metered RotLeftMany k=%d differs from RotLeft", k)
		}
	}
	if got, want := m.Counts().Rotations(), 5; got != want {
		// 1, 2, 8 are one step each; 3 costs two; 0 is free.
		t.Fatalf("metered rotations = %d, want %d", got, want)
	}
}

// TestRotLeftManyFallbackBackends checks the helper on backends without the
// batch capability: the sequential fallback must decrypt to the rotated
// vector within each backend's noise tolerance (Sim injects fresh noise per
// op, so we compare against the plaintext, not a second RotLeft call).
func TestRotLeftManyFallbackBackends(t *testing.T) {
	for _, tb := range []struct {
		b   Backend
		tol float64
	}{
		{NewRefBackend(512), 1e-9},
		{NewSimBackend(SimParams{LogN: 10, LogQ: 240, Seed: 9}), 1e-3},
	} {
		b := tb.b
		slots := b.Slots()
		values := rv(slots, 4, 35)
		ct := b.Encrypt(b.Encode(values, testScale))
		ks := []int{0, 1, 7, slots / 2}
		batch := RotLeftMany(b, ct, ks)
		for i, k := range ks {
			got := b.Decode(b.Decrypt(batch[i]))
			for j := 0; j < slots; j++ {
				want := values[(j+k)%slots]
				if d := got[j] - want; d > tb.tol || d < -tb.tol {
					t.Fatalf("%s: RotLeftMany k=%d slot %d: got %g want %g", b.Name(), k, j, got[j], want)
				}
			}
		}
	}
}
