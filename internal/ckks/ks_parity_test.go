package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"testing"

	"chet/internal/ring"
)

// ctDigest hashes a ciphertext's level and every coefficient row.
func ctDigest(cts ...*Ciphertext) string {
	h := sha256.New()
	var w [8]byte
	for _, ct := range cts {
		binary.LittleEndian.PutUint64(w[:], uint64(ct.Lvl))
		h.Write(w[:])
		for _, p := range [][][]uint64{ct.C0.Coeffs, ct.C1.Coeffs} {
			for _, row := range p[:ct.Lvl+1] {
				for _, c := range row {
					binary.LittleEndian.PutUint64(w[:], c)
					h.Write(w[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAlphaOneMatchesPerPrimeKeySwitch pins α = 1 to the per-prime key
// switch this package implemented before digits could group primes: under a
// fixed PRNG, every key-switching operation must reproduce the digests
// recorded from that implementation (commit df51211). The per-prime code is
// gone; these digests are what keeps it the oracle.
func TestAlphaOneMatchesPerPrimeKeySwitch(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{1, 5, 64}, true)
	ev := NewEvaluator(tc.params, tc.rlk, rtks)
	scale := tc.params.DefaultScale()
	slots := tc.params.Slots()
	cta := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 7), scale, tc.params.MaxLevel()))
	ctb := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 8), scale, tc.params.MaxLevel()))
	low := cta.CopyNew()
	ev.DropToLevel(low, 1)

	got := map[string]string{
		"rotate":              ctDigest(ev.RotateLeft(cta, 5), ev.RotateLeft(low, 64)),
		"conjugate":           ctDigest(ev.Conjugate(cta), ev.Conjugate(low)),
		"relinearize":         ctDigest(ev.Relinearize(ev.MulNoRelin(cta, ctb)), ev.Relinearize(ev.MulNoRelin(low, ctb))),
		"relinearize-rescale": ctDigest(ev.RelinearizeRescale(ev.MulNoRelin(cta, ctb)), ev.RelinearizeRescale(ev.MulNoRelin(low, ctb))),
		"rotate-hoisted":      ctDigest(append(ev.RotateHoisted(cta, []int{1, 5, 64}), ev.RotateHoisted(low, []int{64, 1})...)...),
	}
	want := map[string]string{
		"rotate":              "0de12c16236de3bd95c97bc9bf3ee05d8a6f694a2f0035b3199e4c29cc2d466d",
		"conjugate":           "f490031db7b854b4ab771595adf0b1506220dc989a2cc77fe9f52811ade753c7",
		"relinearize":         "1eeb012b71d4237c657c3e60c79923fb2c6432de2771ba7679184bbf19062102",
		"relinearize-rescale": "9080cc09d40a7992a31c34fc58ee236d84092da0d105094731273cbf0ae79ef3",
		"rotate-hoisted":      "d4e1e239465d0551f2eaa8885df4c4aeb92b468c0efff6d6f8023eed5cfecb05",
	}
	for op, digest := range got {
		if want[op] != digest {
			t.Errorf("%s: digest %s, want %s", op, digest, want[op])
		}
	}
}

// alphaContext is a 7-prime chain keyed for the given α. Seven primes make
// the top digit partial for α = 2 (2+2+2+1) and α = 3 (3+3+1), and walking
// the levels down cuts every digit short in turn.
func alphaContext(t testing.TB, alpha int) (*testContext, *Evaluator) {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{50, 40, 40, 40, 40, 40, 40},
		LogP:     50,
		Alpha:    alpha,
		LogScale: 40,
	})
	if err != nil {
		t.Fatalf("NewParameters(α=%d): %v", alpha, err)
	}
	prng := ring.NewTestPRNG(0xA1FA)
	kgen := NewKeyGenerator(params, prng)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	tc := &testContext{
		params: params,
		enc:    NewEncoder(params),
		kgen:   kgen,
		sk:     sk,
		pk:     pk,
		rlk:    kgen.GenRelinearizationKey(sk),
		encr:   NewEncryptor(params, pk, prng),
		decr:   NewDecryptor(params, sk),
	}
	rtks := kgen.GenRotationKeys(sk, []int{1, 3, 16}, true)
	return tc, NewEvaluator(params, tc.rlk, rtks)
}

var parityAlphas = []int{1, 2, 3, 7}

// TestHybridKeySwitchParity is the structural half of the hybrid key-switch
// contract, for every α (per-prime, partial top digit twice, one digit for
// the whole chain) and every level: hoisted batches equal sequential
// rotations, the fused relinearize-rescale equals Rescale∘Relinearize, and
// intra-op workers equal serial — all bit-identically — and no arena lease
// outlives the operations.
func TestHybridKeySwitchParity(t *testing.T) {
	for _, alpha := range parityAlphas {
		tc, ev := alphaContext(t, alpha)
		par := ev.ShallowCopy().SetIntraOpWorkers(3)
		r := tc.params.Ring()
		scale := tc.params.DefaultScale()
		slots := tc.params.Slots()
		cta := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 11), scale, tc.params.MaxLevel()))
		ctb := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 12), scale, tc.params.MaxLevel()))
		if got, want := len(tc.rlk.Key.B), (7+alpha-1)/alpha; got != want {
			t.Fatalf("α=%d: relinearization key has %d digits, want %d", alpha, got, want)
		}
		leased := r.OutstandingPolys()

		for level := tc.params.MaxLevel(); level >= 0; level-- {
			a := ev.leaseAt(cta, level)
			b := ev.leaseAt(ctb, level)
			recycle := func(cts ...*Ciphertext) {
				for _, ct := range cts {
					ev.Recycle(ct)
				}
			}

			ks := []int{1, 3, 16}
			hoisted := ev.RotateHoisted(a, ks)
			hoistedPar := par.RotateHoisted(a, ks)
			for i, k := range ks {
				seq := ev.RotateLeft(a, k)
				if !ctEqual(hoisted[i], seq) {
					t.Fatalf("α=%d level %d: hoisted rotation by %d differs from sequential", alpha, level, k)
				}
				if !ctEqual(hoistedPar[i], seq) {
					t.Fatalf("α=%d level %d: 3-worker rotation by %d differs from serial", alpha, level, k)
				}
				recycle(seq, hoisted[i], hoistedPar[i])
			}
			conj, conjPar := ev.Conjugate(a), par.Conjugate(a)
			if !ctEqual(conj, conjPar) {
				t.Fatalf("α=%d level %d: 3-worker conjugation differs from serial", alpha, level)
			}
			recycle(conj, conjPar)

			d2 := ev.MulNoRelin(a, b)
			relin, relinPar := ev.Relinearize(d2), par.Relinearize(d2)
			if !ctEqual(relin, relinPar) {
				t.Fatalf("α=%d level %d: 3-worker relinearization differs from serial", alpha, level)
			}
			recycle(relin, relinPar)
			if level > 0 {
				unfused := ev.copyCt(d2)
				ev.Rescale(unfused)
				want := ev.Relinearize(unfused)
				fused, fusedPar := ev.RelinearizeRescale(d2), par.RelinearizeRescale(d2)
				if !ctEqual(fused, want) {
					t.Fatalf("α=%d level %d: fused relinearize-rescale differs from Rescale∘Relinearize", alpha, level)
				}
				if !ctEqual(fusedPar, want) {
					t.Fatalf("α=%d level %d: 3-worker fused relinearize-rescale differs from serial", alpha, level)
				}
				recycle(unfused, want, fused, fusedPar)
			}
			recycle(d2, a, b)
		}
		if got := r.OutstandingPolys(); got != leased {
			t.Errorf("α=%d: %d arena polys still leased after the sweep (basis-extension scratch included)", alpha, got-leased)
		}
	}
}

// keySwitchNoise returns log2 of the largest coefficient of the error
// polynomial a rotation's key switch adds: Decrypt(Rotate(ct)) minus the
// same automorphism applied to Decrypt(ct), exactly, as centered integers.
func keySwitchNoise(tc *testContext, ev *Evaluator, ct *Ciphertext, k int) float64 {
	r := tc.params.Ring()
	level := ct.Lvl
	want := r.NewPoly(level)
	r.AutomorphismNTT(tc.decr.Decrypt(ct).Value, r.GaloisElementForRotation(k), want, level)
	diff := tc.decr.Decrypt(ev.RotateLeft(ct, k)).Value
	r.Sub(diff, want, diff, level)
	r.InvNTT(diff, level)
	worst := new(big.Int)
	for _, c := range r.PolyToBigintCentered(diff, level) {
		if c.CmpAbs(worst) > 0 {
			worst.Abs(c)
		}
	}
	f, _ := new(big.Float).SetInt(worst).Float64()
	return math.Log2(f + 1)
}

// TestHybridKeySwitchNoise is the numeric half: at every level, the error
// polynomial a key switch adds under α > 1 may be at most keySwitchNoiseBits
// bits larger than under the per-prime α = 1 switch of the same chain.
// Grouping α primes multiplies a digit's magnitude by its group's product,
// but the division is by P = ∏p_k ≥ that product, and the approximate basis
// extensions are corrected to the exact representative, so what remains is
// the rounding of the division by P (‖s‖₁-bounded, the same for every α) —
// the budget covers the run-to-run spread of a maximum over N coefficients.
func TestHybridKeySwitchNoise(t *testing.T) {
	const keySwitchNoiseBits = 2.0
	measure := func(alpha int) []float64 {
		tc, ev := alphaContext(t, alpha)
		ct := tc.encr.Encrypt(tc.enc.Encode(randomVector(tc.params.Slots(), 1, 21), tc.params.DefaultScale(), tc.params.MaxLevel()))
		var out []float64
		for level := tc.params.MaxLevel(); level >= 0; level-- {
			out = append(out, keySwitchNoise(tc, ev, ev.leaseAt(ct, level), 3))
		}
		return out
	}
	base := measure(1)
	for _, alpha := range parityAlphas[1:] {
		got := measure(alpha)
		t.Logf("α=%d key-switch noise bits by level (top first): %.1f (α=1: %.1f)", alpha, got, base)
		for i := range got {
			if got[i] > base[i]+keySwitchNoiseBits {
				t.Errorf("α=%d level %d: key-switch noise 2^%.1f exceeds α=1's 2^%.1f by more than %.0f bits",
					alpha, len(got)-1-i, got[i], base[i], keySwitchNoiseBits)
			}
		}
	}
}
