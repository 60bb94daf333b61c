package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strconv"
	"testing"

	"chet/internal/ring"
)

// leveledKeys generates, from one PRNG seed, a public key and the
// relinearization and Galois keys (rotations 1 and 5, conjugation) for
// every key at the given level.
func leveledKeys(params *Parameters, seed uint64, level int) (*PublicKey, *SecretKey, *RelinearizationKey, *RotationKeySet) {
	r := params.Ring()
	kgen := NewKeyGenerator(params, ring.NewTestPRNG(seed))
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk, level)
	rtks := kgen.GenGaloisKeys(sk, map[uint64]int{
		r.GaloisElementForRotation(1): level,
		r.GaloisElementForRotation(5): level,
		r.GaloisElementConjugate():    level,
	})
	return pk, sk, rlk, rtks
}

// TestLeveledKeyParity: a key cut at level c is the restriction of the
// full-chain key drawn from the same seed, and serves every level ≤ c
// bit-identically to it — rotation, hoisted rotation, conjugation,
// relinearization and the fused relinearize-rescale (whose switch runs one
// level below its operand) — for per-prime, grouped and one-digit α.
func TestLeveledKeyParity(t *testing.T) {
	const cut = 3
	for _, alpha := range parityAlphas {
		tc, _ := alphaContext(t, alpha)
		params := tc.params
		pk, _, rlkFull, rtksFull := leveledKeys(params, 0x1E7E1, params.MaxLevel())
		_, _, rlkCut, rtksCut := leveledKeys(params, 0x1E7E1, cut)

		for g, full := range rtksFull.Keys {
			restricted(t, params, full, rtksCut.Keys[g], "Galois "+strconv.FormatUint(g, 10))
		}
		restricted(t, params, rlkFull.Key, rlkCut.Key, "relinearization")

		evFull := NewEvaluator(params, rlkFull, rtksFull)
		evCut := NewEvaluator(params, rlkCut, rtksCut)
		encr := NewEncryptor(params, pk, ring.NewTestPRNG(5))
		scale := params.DefaultScale()
		slots := params.Slots()
		cta := encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 21), scale, params.MaxLevel()))
		ctb := encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 22), scale, params.MaxLevel()))
		for level := 0; level <= cut+1; level++ {
			a, b := cta.CopyNew(), ctb.CopyNew()
			evFull.DropToLevel(a, level)
			evFull.DropToLevel(b, level)
			same := func(op string, f func(ev *Evaluator) []*Ciphertext) {
				t.Helper()
				if got, want := ctDigest(f(evCut)...), ctDigest(f(evFull)...); got != want {
					t.Errorf("α=%d level %d: %s with the cut keys differs from the full keys", alpha, level, op)
				}
			}
			if level >= 1 { // the fused switch runs at level-1 ≤ cut
				same("relinearize-rescale", func(ev *Evaluator) []*Ciphertext {
					return []*Ciphertext{ev.RelinearizeRescale(ev.MulNoRelin(a, b))}
				})
			}
			if level > cut {
				continue
			}
			same("rotate", func(ev *Evaluator) []*Ciphertext { return []*Ciphertext{ev.RotateLeft(a, 1)} })
			same("rotate-hoisted", func(ev *Evaluator) []*Ciphertext { return rotateHoisted(ev, a, []int{1, 5}) })
			same("conjugate", func(ev *Evaluator) []*Ciphertext { return []*Ciphertext{ev.Conjugate(a)} })
			same("relinearize", func(ev *Evaluator) []*Ciphertext {
				return []*Ciphertext{ev.Relinearize(ev.MulNoRelin(a, b))}
			})
		}
	}
}

// restricted checks that cut holds exactly the rows and digits a key at its
// level has, each equal to full's.
func restricted(t *testing.T, params *Parameters, full, cut *SwitchingKey, what string) {
	t.Helper()
	if err := params.ValidateSwitchingKey(cut, cut.Level); err != nil {
		t.Fatalf("%s: cut key has the wrong shape: %v", what, err)
	}
	for i := range cut.B {
		for _, j := range params.ksRows(cut.Level) {
			for _, pair := range [][2][]uint64{{cut.B[i].Coeffs[j], full.B[i].Coeffs[j]}, {cut.A[i].Coeffs[j], full.A[i].Coeffs[j]}} {
				for k := range pair[0] {
					if pair[0][k] != pair[1][k] {
						t.Fatalf("%s: digit %d row %d of the cut key is not the full key's", what, i, j)
					}
				}
			}
		}
	}
}

// TestKeyGenDeterministicAcrossProcs: key generation fans its (key, digit)
// tasks over runtime.GOMAXPROCS(0) goroutines, and the keys must not depend
// on how many there are.
func TestKeyGenDeterministicAcrossProcs(t *testing.T) {
	tc, _ := alphaContext(t, 2)
	digest := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pk, _, rlk, rtks := leveledKeys(tc.params, 0xD16E57, 4)
		h := sha256.New()
		for _, m := range []interface{ MarshalBinary() ([]byte, error) }{pk, rlk, rtks} {
			data, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if one, four := digest(1), digest(4); one != four {
		t.Fatalf("keys at GOMAXPROCS 1 (%s) differ from GOMAXPROCS 4 (%s)", one, four)
	}
}

// TestOverLevelKeySwitchIsDescriptive: applying a key to a ciphertext above
// the levels it serves fails the way a missing key does — naming the key,
// the ciphertext's level and the key's — never with an index panic on an
// absent key row.
func TestOverLevelKeySwitchIsDescriptive(t *testing.T) {
	tc, _ := alphaContext(t, 2)
	params := tc.params
	r := params.Ring()
	pk, _, rlk, rtks := leveledKeys(params, 0x0E7E1, 1)
	ev := NewEvaluator(params, rlk, rtks)
	encr := NewEncryptor(params, pk, ring.NewTestPRNG(6))
	ct := encr.Encrypt(tc.enc.Encode(randomVector(params.Slots(), 1, 23), params.DefaultScale(), params.MaxLevel()))
	ev.DropToLevel(ct, 2)

	g := r.GaloisElementForRotation(5)
	if _, err := rtks.RotationKeyFor(g, 2); err == nil {
		t.Fatal("RotationKeyFor served a level-1 key at level 2")
	}
	galois := "Galois element " + strconv.FormatUint(g, 10) + " serves levels up to 1, ciphertext is at level 2"
	conj := "Galois element " + strconv.FormatUint(r.GaloisElementConjugate(), 10) + " serves levels up to 1, ciphertext is at level 2"
	relin := "relinearization key serves levels up to 1, ciphertext is at level 2"
	mustPanicWith(t, galois, func() { ev.RotateLeft(ct, 5) })
	mustPanicWith(t, galois, func() { rotateHoisted(ev, ct, []int{5, 1}) })
	mustPanicWith(t, conj, func() { ev.Conjugate(ct) })
	mustPanicWith(t, relin, func() { ev.Relinearize(ev.MulNoRelin(ct, ct)) })
	hi := encr.Encrypt(tc.enc.Encode(randomVector(params.Slots(), 1, 24), params.DefaultScale(), params.MaxLevel()))
	ev.DropToLevel(hi, 3)
	mustPanicWith(t, relin, func() { ev.RelinearizeRescale(ev.MulNoRelin(hi, hi)) }) // switches at level 2

	// At the key's own level every operation is served.
	ev.DropToLevel(ct, 1)
	ev.RotateLeft(ct, 5)
	ev.Conjugate(ct)
	ev.Relinearize(ev.MulNoRelin(ct, ct))
}
