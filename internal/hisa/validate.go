package hisa

import (
	"fmt"

	"chet/internal/ckks"
	"chet/internal/ring"
)

// polyShape checks that a polynomial has exactly `rows` RNS rows of the
// ring degree n. The ckks unmarshalers guarantee structural sanity (no nil
// rows, plausible sizes); this pins the shape to one concrete parameter
// set, which the unmarshalers cannot know.
func polyShape(p *ring.Poly, rows, n int, what string) error {
	if p == nil {
		return fmt.Errorf("hisa: %s is nil", what)
	}
	if len(p.Coeffs) != rows {
		return fmt.Errorf("hisa: %s has %d RNS rows, parameters imply %d", what, len(p.Coeffs), rows)
	}
	for i, row := range p.Coeffs {
		if len(row) != n {
			return fmt.Errorf("hisa: %s row %d has %d coefficients, ring degree is %d", what, i, len(row), n)
		}
	}
	return nil
}

// ValidateRNSKeys checks received public key material against a parameter
// set before it is handed to an evaluator: RNS row counts, key-switch digit
// counts, ring degrees, and Galois elements must all match, and every
// rotation amount the client claims must have a corresponding key.
// Deserialized keys are structurally sound but shape-unconstrained; an
// evaluation server calls this at session-open so a mismatched or corrupted
// upload is rejected with an error instead of panicking mid-inference.
func ValidateRNSKeys(params *ckks.Parameters, keys RNSPublicKeys) error {
	if keys.PK == nil || keys.RLK == nil || keys.RTKS == nil {
		return fmt.Errorf("hisa: incomplete key material (pk=%v rlk=%v rtks=%v)",
			keys.PK != nil, keys.RLK != nil, keys.RTKS != nil)
	}
	n := params.N()
	chainRows := len(params.QChain())

	// Public key: chain primes only.
	if err := polyShape(keys.PK.B, chainRows, n, "public key B"); err != nil {
		return err
	}
	if err := polyShape(keys.PK.A, chainRows, n, "public key A"); err != nil {
		return err
	}

	// Switching keys: exactly the digit count and extended-basis height the
	// key-switch inner product will index (chain primes plus α special
	// primes, ⌈chain/α⌉ digits).
	if err := params.ValidateSwitchingKey(keys.RLK.Key); err != nil {
		return fmt.Errorf("hisa: relinearization key: %w", err)
	}

	if keys.RTKS.Keys == nil {
		return fmt.Errorf("hisa: rotation key set has no key map")
	}
	twoN := uint64(2 * n)
	for g, swk := range keys.RTKS.Keys {
		if g%2 == 0 || g == 0 || g >= twoN {
			return fmt.Errorf("hisa: invalid Galois element %d (ring degree %d)", g, n)
		}
		if err := params.ValidateSwitchingKey(swk); err != nil {
			return fmt.Errorf("hisa: rotation key (Galois %d): %w", g, err)
		}
	}

	// Every claimed rotation amount must be realized by an uploaded key,
	// otherwise the evaluator would fail the first time the circuit uses it.
	r := params.Ring()
	slots := params.Slots()
	for _, k := range keys.Rotations {
		k = ((k % slots) + slots) % slots
		if k == 0 {
			continue
		}
		g := r.GaloisElementForRotation(k)
		if _, ok := keys.RTKS.Keys[g]; !ok {
			return fmt.Errorf("hisa: claimed rotation %d has no key (Galois element %d)", k, g)
		}
	}
	return nil
}
