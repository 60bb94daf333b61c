package ckks

import (
	"fmt"

	"chet/internal/ring"
)

// SecretKey is the ternary secret s, stored in NTT domain over all primes
// (chain plus special).
type SecretKey struct {
	Value *ring.Poly
}

// PublicKey is an encryption of zero (b, a) with b = -a*s + e, stored in NTT
// domain over the chain primes only.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a ciphertext component from a source secret s' to
// the canonical secret s. One (B, A) pair per key-switch digit (a group of α
// consecutive chain primes, see hoisting.go); each pair spans the full prime
// set including the special primes.
type SwitchingKey struct {
	B, A []*ring.Poly
}

// RelinearizationKey switches from s^2 to s, enabling ciphertext-ciphertext
// multiplication.
type RelinearizationKey struct {
	Key *SwitchingKey
}

// RotationKeySet holds Galois keys indexed by Galois element.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// GaloisElements returns the set of Galois elements with keys, useful for
// asserting which rotations a runtime may perform.
func (r *RotationKeySet) GaloisElements() []uint64 {
	out := make([]uint64, 0, len(r.Keys))
	for g := range r.Keys {
		out = append(out, g)
	}
	return out
}

// KeyGenerator samples keys for a parameter set.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator creates a key generator drawing randomness from prng.
func NewKeyGenerator(params *Parameters, prng ring.PRNG) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.Ring(), prng)}
}

// GenSecretKey samples a fresh ternary secret key.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	r := kg.params.Ring()
	full := r.MaxLevel() // includes the special prime row
	s := r.NewPoly(full)
	kg.sampler.TernaryPoly(s, full)
	r.NTT(s, full)
	return &SecretKey{Value: s}
}

// GenPublicKey derives an encryption key from sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	r := kg.params.Ring()
	level := kg.params.MaxLevel() // chain primes only

	a := r.NewPoly(level)
	kg.sampler.UniformPoly(a, level)

	e := r.NewPoly(level)
	kg.sampler.GaussianPoly(e, level)
	r.NTT(e, level)

	b := r.NewPoly(level)
	r.MulCoeffs(a, sk.Value, b, level) // a*s (sk rows 0..level align with chain)
	r.Neg(b, b, level)
	r.Add(b, e, b, level)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds a key switching from secret sPrime (NTT domain,
// full prime set) to sk.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrime *ring.Poly) *SwitchingKey {
	params := kg.params
	r := params.Ring()
	full := r.MaxLevel() // chain primes + special primes
	numDigits := params.Digits(params.MaxLevel())

	swk := &SwitchingKey{
		B: make([]*ring.Poly, numDigits),
		A: make([]*ring.Poly, numDigits),
	}

	for i := 0; i < numDigits; i++ {
		a := r.NewPoly(full)
		kg.sampler.UniformPoly(a, full)

		e := r.NewPoly(full)
		kg.sampler.GaussianPoly(e, full)
		r.NTT(e, full)

		// b = -a*s + e + P*F_i*s' where F_i ≡ 1 modulo the chain primes of
		// digit i and ≡ 0 modulo every other chain prime: only the digit's
		// own rows receive the (P mod q_j)*s' term, and the special-prime
		// rows carry no message term at all (P ≡ 0 there).
		b := r.NewPoly(full)
		r.MulCoeffs(a, sk.Value, b, full)
		r.Neg(b, b, full)
		r.Add(b, e, b, full)

		lo, hi := params.digitRows(i, params.MaxLevel())
		for j := lo; j < hi; j++ {
			qj := r.Moduli[j].Q
			pModQj := uint64(1)
			for _, pk := range params.pSpecial {
				pModQj = ring.MulMod(pModQj, pk%qj, qj)
			}
			pShoup := ring.MForm(pModQj, qj)
			rowB, rowS := b.Coeffs[j], sPrime.Coeffs[j]
			for k := range rowB {
				term := ring.MulModShoup(rowS[k], pModQj, pShoup, qj)
				rowB[k] = ring.AddMod(rowB[k], term, qj)
			}
		}

		swk.B[i] = b
		swk.A[i] = a
	}
	return swk
}

// GenRelinearizationKey produces the key switching s^2 -> s.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	r := kg.params.Ring()
	full := r.MaxLevel()
	s2 := r.NewPoly(full)
	r.MulCoeffs(sk.Value, sk.Value, s2, full)
	return &RelinearizationKey{Key: kg.genSwitchingKey(sk, s2)}
}

// GenRotationKeys produces Galois keys for the given slot rotations
// (positive = left). Pass includeConjugate to add the conjugation key.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int, includeConjugate bool) *RotationKeySet {
	r := kg.params.Ring()
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey)}
	gals := make([]uint64, 0, len(rotations)+1)
	for _, k := range rotations {
		if k == 0 {
			continue
		}
		gals = append(gals, r.GaloisElementForRotation(k))
	}
	if includeConjugate {
		gals = append(gals, r.GaloisElementConjugate())
	}
	full := r.MaxLevel()
	for _, g := range gals {
		if _, ok := set.Keys[g]; ok {
			continue
		}
		sPrime := r.NewPoly(full)
		r.AutomorphismNTT(sk.Value, g, sPrime, full)
		set.Keys[g] = kg.genSwitchingKey(sk, sPrime)
	}
	return set
}

// RotationKeyFor fetches the switching key for a Galois element, with a
// descriptive error when the circuit requests a rotation that was not
// provisioned (the failure mode CHET's rotation-keys pass exists to prevent).
func (r *RotationKeySet) RotationKeyFor(galEl uint64) (*SwitchingKey, error) {
	if r == nil || r.Keys == nil {
		return nil, fmt.Errorf("ckks: no rotation keys provisioned")
	}
	k, ok := r.Keys[galEl]
	if !ok {
		return nil, fmt.Errorf("ckks: missing rotation key for Galois element %d", galEl)
	}
	return k, nil
}
