package ckks

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"chet/internal/ring"
)

// fuzzKeys generates one small deterministic key set for seeding.
func fuzzKeys(f *testing.F) (*Parameters, *KeyGenerator, *SecretKey) {
	return fuzzKeysAlpha(f, []int{30, 25}, 1)
}

// fuzzKeysAlpha is fuzzKeys over a given chain and special-prime count.
func fuzzKeysAlpha(f *testing.F, logQ []int, alpha int) (*Parameters, *KeyGenerator, *SecretKey) {
	f.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN: 4, LogQ: logQ, LogP: 30, Alpha: alpha, LogScale: 25,
	})
	if err != nil {
		f.Fatal(err)
	}
	kgen := NewKeyGenerator(params, ring.NewTestPRNG(11))
	sk := kgen.GenSecretKey()
	return params, kgen, sk
}

// FuzzUnmarshalCiphertext proves Ciphertext.UnmarshalBinary is total:
// corrupted or truncated bytes produce an error, never a panic, and any
// accepted input survives a marshal/unmarshal round trip.
func FuzzUnmarshalCiphertext(f *testing.F) {
	params, kgen, sk := fuzzKeys(f)
	enc := NewEncryptor(params, kgen.GenPublicKey(sk), ring.NewTestPRNG(13))
	encoder := NewEncoder(params)
	ct := enc.Encrypt(encoder.Encode([]float64{1, -2, 3.5}, params.DefaultScale(), params.MaxLevel()))
	seed, err := ct.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Ciphertext
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		reenc, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted ciphertext does not re-marshal: %v", err)
		}
		var c2 Ciphertext
		if err := c2.UnmarshalBinary(reenc); err != nil {
			t.Fatalf("re-marshaled ciphertext rejected: %v", err)
		}
		if c2.Lvl != c.Lvl || c2.Scale != c.Scale {
			t.Fatal("level/scale not stable across round trip")
		}
	})
}

// FuzzUnmarshalRotationKeySet proves RotationKeySet.UnmarshalBinary is
// total over adversarial bytes, and that the admission check stands between
// decoded keys and the key-switch inner product: whatever decodes and then
// passes ValidateSwitchingKey at its own level for a parameter set
// (per-prime α = 1, grouped α = 2 with a partial top digit, one digit
// α = L+1) must rotate a ciphertext at every level it serves without
// panicking, and refuse every level above with the descriptive error. The
// seeds are full-chain and cut key sets and, for each, a truncated, an
// over-long and two wrong-level frames (one key's level field one too high
// and one too low).
func FuzzUnmarshalRotationKeySet(f *testing.F) {
	type target struct {
		params *Parameters
		ct     *Ciphertext
	}
	var targets []target
	for _, alpha := range []int{1, 2, 3} {
		params, kgen, sk := fuzzKeysAlpha(f, []int{30, 25, 25}, alpha)
		r := params.Ring()
		full := kgen.GenRotationKeys(sk, []int{1, 3}, true)
		cut := kgen.GenGaloisKeys(sk, map[uint64]int{
			r.GaloisElementForRotation(1): 0, r.GaloisElementForRotation(3): 1, r.GaloisElementConjugate(): 2,
		})
		for _, rtks := range []*RotationKeySet{full, cut} {
			seed, err := rtks.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
			f.Add(seed[:len(seed)-7])
			f.Add(append(append([]byte(nil), seed...), 0, 0, 0, 0))
			// The first key's level field follows the magic, the key count,
			// its Galois element and its digit count.
			const levelAt = 4 + 4 + 8 + 4
			for _, delta := range []int{1, -1} {
				wrong := append([]byte(nil), seed...)
				binary.LittleEndian.PutUint32(wrong[levelAt:], uint32(int(binary.LittleEndian.Uint32(wrong[levelAt:]))+delta))
				f.Add(wrong)
			}
		}
		enc := NewEncryptor(params, kgen.GenPublicKey(sk), ring.NewTestPRNG(13))
		pt := NewEncoder(params).Encode([]float64{1, -2, 3.5}, params.DefaultScale(), params.MaxLevel())
		targets = append(targets, target{params, enc.Encrypt(pt)})
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var r RotationKeySet
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		for g, k := range r.Keys {
			if k == nil {
				t.Fatalf("accepted key set holds nil switching key for Galois %d", g)
			}
		}
		reenc, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted key set does not re-marshal: %v", err)
		}
		var r2 RotationKeySet
		if err := r2.UnmarshalBinary(reenc); err != nil {
			t.Fatalf("re-marshaled key set rejected: %v", err)
		}
		if len(r2.Keys) != len(r.Keys) {
			t.Fatal("key count not stable across round trip")
		}
		for _, tg := range targets {
			twoN := uint64(2 * tg.params.N())
			admitted := true
			for g, k := range r.Keys {
				if g%2 == 0 || g >= twoN || tg.params.ValidateSwitchingKey(k, k.Level) != nil {
					admitted = false
				}
			}
			if !admitted {
				continue
			}
			ev := NewEvaluator(tg.params, nil, &r)
			for g, k := range r.Keys {
				for level := tg.params.MaxLevel(); level >= 0; level-- {
					if level <= k.Level {
						ev.ApplyGalois(ev.leaseAt(tg.ct, level), g)
						continue
					}
					mustPanicWith(t, "serves levels up to", func() { ev.ApplyGalois(ev.leaseAt(tg.ct, level), g) })
				}
			}
		}
	})
}

// mustPanicWith fails the test unless fn panics with a message containing
// want.
func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	fn()
}

// FuzzUnmarshalPublicKey covers the remaining session-open object.
func FuzzUnmarshalPublicKey(f *testing.F) {
	_, kgen, sk := fuzzKeys(f)
	pk := kgen.GenPublicKey(sk)
	seed, err := pk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PublicKey
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		if p.A == nil || p.B == nil {
			t.Fatal("accepted public key with nil polynomial")
		}
	})
}
