package ckks

import (
	"math/rand"
	"testing"

	"chet/internal/ring"
)

// ctEqual reports whether two ciphertexts are bit-identical.
func ctEqual(a, b *Ciphertext) bool {
	if a.Lvl != b.Lvl || a.Scale != b.Scale {
		return false
	}
	for _, pair := range [2][2][][]uint64{
		{a.C0.Coeffs, b.C0.Coeffs},
		{a.C1.Coeffs, b.C1.Coeffs},
	} {
		pa, pb := pair[0], pair[1]
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			for j := range pa[i] {
				if pa[i][j] != pb[i][j] {
					return false
				}
			}
		}
	}
	return true
}

// rotateHoisted rotates ct by every amount in ks with one RotSum of
// single unit-weight terms: hoisted rotations, one decomposition for all.
func rotateHoisted(ev *Evaluator, ct *Ciphertext, ks []int) []*Ciphertext {
	sums := make([][]SumTerm, len(ks))
	for i, k := range ks {
		sums[i] = []SumTerm{{Rot: k}}
	}
	return ev.RotSum([]*Ciphertext{ct}, sums)
}

// TestRotateHoistedMatchesRotateLeft is the hoisting property test: for
// random ciphertexts, random levels, and random rotation sets (including
// zero, negative, and repeated amounts), hoisted rotations must produce
// byte-identical ciphertexts to per-amount RotateLeft calls.
func TestRotateHoistedMatchesRotateLeft(t *testing.T) {
	tc := newTestContext(t)
	slots := tc.params.Slots()
	rotations := []int{1, 2, 3, 5, 7, 8, 16, 100, slots - 1}
	rtks := tc.kgen.GenRotationKeys(tc.sk, rotations, false)
	ev := NewEvaluator(tc.params, nil, rtks)
	rng := rand.New(rand.NewSource(97))

	for trial := 0; trial < 6; trial++ {
		values := randomVector(slots, 4, int64(200+trial))
		pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
		ct := tc.encr.Encrypt(pt)
		level := rng.Intn(tc.params.MaxLevel() + 1)
		ev.DropToLevel(ct, level)

		// Random subset of the keyed amounts, plus edge cases.
		ks := []int{0, -slots} // both reduce to 0 mod slots
		for _, k := range rotations {
			if rng.Intn(2) == 0 {
				ks = append(ks, k)
			}
			if rng.Intn(4) == 0 {
				ks = append(ks, k-slots) // negative alias of a keyed amount
			}
		}
		ks = append(ks, ks[len(ks)-1]) // repeated amount

		hoisted := rotateHoisted(ev, ct, ks)
		for i, k := range ks {
			want := ev.RotateLeft(ct, k)
			if !ctEqual(hoisted[i], want) {
				t.Fatalf("trial %d level %d: hoisted k=%d differs from RotateLeft", trial, level, k)
			}
		}
	}
}

// TestRotateHoistedDecrypts checks end-to-end correctness: hoisted
// rotations decrypt to the rotated plaintext within CKKS noise.
func TestRotateHoistedDecrypts(t *testing.T) {
	tc := newTestContext(t)
	slots := tc.params.Slots()
	rotations := []int{1, 3, 8, 17}
	rtks := tc.kgen.GenRotationKeys(tc.sk, rotations, false)
	ev := NewEvaluator(tc.params, nil, rtks)

	values := randomVector(slots, 4, 77)
	pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	ct := tc.encr.Encrypt(pt)

	outs := rotateHoisted(ev, ct, rotations)
	for i, k := range rotations {
		got := tc.enc.Decode(tc.decr.Decrypt(outs[i]))
		want := make([]float64, slots)
		for j := range want {
			want[j] = values[(j+k)%slots]
		}
		if d := maxAbsDiff(want, got); d > 1e-4 {
			t.Fatalf("hoisted rotation by %d: error %g too large", k, d)
		}
	}
}

// TestHoistedDecompositionReuse checks that a shared decomposition is not
// corrupted by rotations drawn from it: rotating twice by the same amount
// from one decomposition, interleaved with another amount, stays
// bit-identical, and Release does not affect previously produced outputs.
func TestHoistedDecompositionReuse(t *testing.T) {
	tc := newTestContext(t)
	slots := tc.params.Slots()
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{1, 5}, false)
	ev := NewEvaluator(tc.params, nil, rtks)

	values := randomVector(slots, 4, 123)
	pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	ct := tc.encr.Encrypt(pt)

	r := tc.params.Ring()
	dec := ev.hoistedDecompose(ct.C1, ct.Lvl)
	if dec.level != ct.Lvl {
		t.Fatalf("decomposition level %d, want %d", dec.level, ct.Lvl)
	}
	first := ev.applyGaloisHoisted(ct, dec, r.GaloisElementForRotation(1))
	_ = ev.applyGaloisHoisted(ct, dec, r.GaloisElementForRotation(5))
	second := ev.applyGaloisHoisted(ct, dec, r.GaloisElementForRotation(1))
	if !ctEqual(first, second) {
		t.Fatal("decomposition reuse changed the result of rotation by 1")
	}
	dec.Release()
	want := ev.RotateLeft(ct, 1)
	if !ctEqual(first, want) {
		t.Fatal("hoisted rotation differs from RotateLeft after Release")
	}
	// A RotSum drawing on one (source, amount) pair from two outputs, with
	// another amount between them, shares the pair's inner product.
	outs := ev.RotSum([]*Ciphertext{ct}, [][]SumTerm{{{Rot: 1}}, {{Rot: 5}}, {{Rot: 1}}})
	if !ctEqual(outs[0], want) || !ctEqual(outs[2], want) {
		t.Fatal("a shared RotSum rotation differs from RotateLeft")
	}
}

// TestHoistedLevelMismatchPanics pins the guard against applying a stale
// decomposition to a ciphertext whose level has since changed.
func TestHoistedLevelMismatchPanics(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{1}, false)
	ev := NewEvaluator(tc.params, nil, rtks)

	values := randomVector(tc.params.Slots(), 4, 9)
	pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	ct := tc.encr.Encrypt(pt)
	dec := ev.hoistedDecompose(ct.C1, ct.Lvl)
	ev.DropToLevel(ct, ct.Lvl-1)

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on level mismatch")
		}
	}()
	ev.applyGaloisHoisted(ct, dec, tc.params.Ring().GaloisElementForRotation(1))
}

// TestLiveSpecialKeepsMargin: a key switch below level α-1 works over as
// many special primes as its one digit has chain primes, and more while
// P_k is not KeySwitchMarginBits above that digit — special primes sized to
// the slack can be smaller than the base prime. A rotation at level 0 under
// such primes still decrypts.
func TestLiveSpecialKeepsMargin(t *testing.T) {
	chain := []int{52, 40, 40, 40}
	for _, c := range []struct {
		alpha, logP int
		live        []int
	}{
		{1, 60, []int{1, 1, 1, 1}},
		{2, 60, []int{1, 2, 2, 2}}, // 60 ≥ 52+8: one special prime at level 0
		{2, 53, []int{2, 2, 2, 2}}, // 53 < 52+8: both
		{3, 45, []int{2, 3, 3, 3}}, // 90 ≥ 60 at level 0; 90 < 92+8 at level 1
	} {
		params, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: chain, LogP: c.logP, Alpha: c.alpha, LogScale: 40})
		if err != nil {
			t.Fatal(err)
		}
		for level, want := range c.live {
			if got := params.LiveSpecial(level); got != want {
				t.Errorf("α = %d, %d-bit special primes: %d live at level %d, want %d", c.alpha, c.logP, got, level, want)
			}
		}
		if c.logP != 53 {
			continue
		}
		prng := ring.NewTestPRNG(0x5EC1A1)
		kgen := NewKeyGenerator(params, prng)
		sk := kgen.GenSecretKey()
		enc, encr, decr := NewEncoder(params), NewEncryptor(params, kgen.GenPublicKey(sk), prng), NewDecryptor(params, sk)
		ev := NewEvaluator(params, nil, kgen.GenRotationKeys(sk, []int{3}, false))
		values := randomVector(params.Slots(), 4, 78)
		ct := encr.Encrypt(enc.Encode(values, params.DefaultScale(), 0))
		got := enc.Decode(decr.Decrypt(ev.RotateLeft(ct, 3)))
		want := make([]float64, len(values))
		for j := range want {
			want[j] = values[(j+3)%len(values)]
		}
		if d := maxAbsDiff(want, got); d > 1e-4 {
			t.Errorf("rotation at level 0 under %d-bit special primes: error %g", c.logP, d)
		}
	}
}
