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
//
// They were re-pinned once, when switching keys moved to per-key seeded
// ChaCha8 streams: the keys (and the PRNG state encryption starts from)
// changed, the key-switch arithmetic in hoisting.go, fused.go and the
// evaluator did not — the same diff touched only their key lookups. Re-pin
// them again only in a diff that leaves that arithmetic alone.
//
// The pins from rotsum-qp on were recorded before the ring kernels under
// them were rewritten for modulus-sized lazy reductions and the NTT's
// merged passes: sums of rotations in QP (plaintext, scalar and unit
// weights, more pairs per source than one pass of any kernel takes) and in
// the chain basis, a sum whose keys are cut below one source's level,
// Rescale, and hoisted batches for α = 2, 3 and 7. Every reduction those
// rewrites change is exact, so the digests must not move.
//
// hoisted-alpha2, -3 and -7 were re-pinned when a switch below level α-1
// began taking as many special primes as P_k's 2^8 margin over the digit
// needs: these fixtures' 50-bit q_0 over 50-bit special primes now takes two
// at level 0, where it took one. Only their level-0 batches moved; the
// batches at the top and at level α-2 kept their digests.
//
// relinearize-rescale was re-pinned when RelinearizeRescale changed from
// Relinearize∘Rescale to Rescale∘Relinearize; the new digest is also checked
// against the two pinned operations it composes.
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

	// Sums of rotations under keys for seven amounts, drawn after the
	// ciphertexts so the pins above keep their PRNG state; cut keys serve
	// levels 0..1 only.
	r := tc.params.Ring()
	wide := NewEvaluator(tc.params, nil, tc.kgen.GenRotationKeys(tc.sk, []int{1, 2, 3, 5, 7, 9, 64}, false))
	cut := NewEvaluator(tc.params, nil, tc.kgen.GenGaloisKeys(tc.sk, map[uint64]int{
		r.GaloisElementForRotation(1): 1, r.GaloisElementForRotation(3): 1,
	}))
	const wScale = 1 << 30
	pa := tc.enc.Encode(randomVector(slots, 1, 9), wScale, tc.params.MaxLevel())
	pb := tc.enc.Encode(randomVector(slots, 1, 10), wScale, tc.params.MaxLevel())
	qpSums := [][]SumTerm{
		{{Rot: 1, Pt: pa}, {Rot: 2, Pt: pb}, {Rot: 3, Pt: pa}, {Rot: 5, Pt: pb}, {Rot: 7, Pt: pa}, {Rot: 9, Pt: pb}, {Pt: pa}, {Src: 1, Rot: 64, Pt: pb}},
		{{Rot: 1, X: 0.5, F: wScale}, {Rot: 2, X: -1.25, F: wScale}, {Rot: 3, X: 2, F: wScale}, {Rot: 5, X: 3, F: wScale}, {Rot: 7, X: -0.75, F: wScale}, {Rot: 9, X: 1.5, F: wScale}, {Src: 1, X: 2, F: wScale}},
		{{Rot: 1}, {Rot: 2}, {Rot: 3}, {Rot: 5}, {Rot: 7}, {Rot: 9}, {Rot: 64}, {}, {Src: 1, Rot: 3}, {Src: 1}},
		{{Rot: 9, Pt: pa}, {Rot: 2, X: 0.25, F: wScale}, {Rot: 5, X: 1, F: wScale}, {Src: 1, Rot: 1, Pt: pb}},
	}
	chainSums := [][]SumTerm{
		{{Pt: pa}, {Src: 1, Pt: pb}, {X: 1.5, F: wScale}},
		{{}, {Src: 1}},
	}
	cutSums := [][]SumTerm{
		{{Rot: 1, Pt: pa}, {Src: 1, Rot: 3, X: 0.5, F: wScale}, {Src: 1, X: -2, F: wScale}},
		{{Rot: 3}, {Src: 1, Rot: 1}},
	}
	rescaled := cta.CopyNew()
	ev.Rescale(rescaled)
	rescaledLow := ev.MulNoRelin(low, ctb)
	ev.Rescale(rescaledLow)
	hoistedAlpha := func(alpha int) string {
		atc, aev := alphaContext(t, alpha)
		ct := atc.encr.Encrypt(atc.enc.Encode(randomVector(atc.params.Slots(), 1, 13), atc.params.DefaultScale(), atc.params.MaxLevel()))
		out := rotateHoisted(aev, ct, []int{1, 3, 16, 0})
		for _, level := range []int{alpha - 1, 0} {
			out = append(out, rotateHoisted(aev, aev.leaseAt(ct, max(level-1, 0)), []int{16, 1, 3})...)
		}
		return ctDigest(out...)
	}

	got := map[string]string{
		"rotsum-qp":           ctDigest(append(wide.RotSum([]*Ciphertext{cta, ctb}, qpSums), wide.RotSum([]*Ciphertext{low, ctb}, qpSums)...)...),
		"rotsum-chain":        ctDigest(wide.RotSum([]*Ciphertext{cta, ctb}, chainSums)...),
		"rotsum-cut-key":      ctDigest(cut.RotSum([]*Ciphertext{low, cta}, cutSums)...),
		"rescale":             ctDigest(rescaled, rescaledLow),
		"hoisted-alpha2":      hoistedAlpha(2),
		"hoisted-alpha3":      hoistedAlpha(3),
		"hoisted-alpha7":      hoistedAlpha(7),
		"rotate":              ctDigest(ev.RotateLeft(cta, 5), ev.RotateLeft(low, 64)),
		"conjugate":           ctDigest(ev.Conjugate(cta), ev.Conjugate(low)),
		"relinearize":         ctDigest(ev.Relinearize(ev.MulNoRelin(cta, ctb)), ev.Relinearize(ev.MulNoRelin(low, ctb))),
		"relinearize-rescale": ctDigest(ev.RelinearizeRescale(ev.MulNoRelin(cta, ctb)), ev.RelinearizeRescale(ev.MulNoRelin(low, ctb))),
		"rotate-hoisted":      ctDigest(append(rotateHoisted(ev, cta, []int{1, 5, 64}), rotateHoisted(ev, low, []int{64, 1})...)...),
	}
	want := map[string]string{
		"rotate":              "4c0d9c5c3612ea7b72d544857361c3ed5cb5a256ab921e075566d2a0dbe4b16c",
		"conjugate":           "29e5a3fe9163188e9f24c92bc91a60cf33b491b846e23a966b214fd58a60f912",
		"relinearize":         "2f50de1676c6fd48338e9cab109f73f6250cb5b3d741d832111e04884b1a4a0c",
		"relinearize-rescale": "75cc8e88618d0d6a63796e98ac2a363a1d9b59e6b21e161ad984629b55c346a2",
		"rotate-hoisted":      "0358940d4ae6ac7f425b35e07216c4ca17bb378ea283458467b626df35389d0c",
		"rotsum-qp":           "69e459fb9ddd68e832e2c1be3fc6a804f7a255e3602692d43ec4621b7bea709b",
		"rotsum-chain":        "bcadd21f21a2866861137efb00107881ca9e0d55ef4ea245cfa3a21311aad195",
		"rotsum-cut-key":      "352c6f8fa02e019bccbce124a1d3e072df1497acc0000254b1ccc7d5eb7e8ddf",
		"rescale":             "3707bee9943b4d5a9c58830156ea656a8fb02d6825d1a08e38010d0d88e9b244",
		"hoisted-alpha2":      "3deca974265eec676dd5e426071c54f70097acf4cbd25bf4a54bf710968d9288",
		"hoisted-alpha3":      "b20b125814aa69ada8906686d600918776af5cd9c1b23e47e853f6a6a02b8bd9",
		"hoisted-alpha7":      "3bf634448e11bb34b0202f5c9159df1f6b06eb1214ee500040f891f99fb095f2",
	}
	for op, digest := range got {
		if want[op] != digest {
			t.Errorf("%s: digest %s, want %s", op, digest, want[op])
		}
	}
	composed := func(a *Ciphertext) *Ciphertext {
		out := ev.Relinearize(ev.MulNoRelin(a, ctb))
		ev.Rescale(out)
		return out
	}
	if d := ctDigest(composed(cta), composed(low)); d != got["relinearize-rescale"] {
		t.Errorf("relinearize-rescale: digest %s, Rescale∘Relinearize gives %s", got["relinearize-rescale"], d)
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
		rlk:    kgen.GenRelinearizationKey(sk, params.MaxLevel()),
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
			hoisted := rotateHoisted(ev, a, ks)
			hoistedPar := rotateHoisted(par, a, ks)
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
				want := ev.Relinearize(d2)
				ev.Rescale(want)
				fused, fusedPar := ev.RelinearizeRescale(d2), par.RelinearizeRescale(d2)
				if !ctEqual(fused, want) {
					t.Fatalf("α=%d level %d: fused relinearize-rescale differs from Rescale∘Relinearize", alpha, level)
				}
				if !ctEqual(fusedPar, want) {
					t.Fatalf("α=%d level %d: 3-worker fused relinearize-rescale differs from serial", alpha, level)
				}
				recycle(want, fused, fusedPar)
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
