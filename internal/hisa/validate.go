package hisa

import (
	"fmt"

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

// ValidateRNSKeys checks received public key material against the key
// shape a backend built from cfg generates, before it is handed to an
// evaluator: RNS row counts, ring degrees, and — per switching key — the
// planned level and the digit count and rows it implies. The rotation key
// set must hold exactly the planned Galois elements, and every rotation
// amount the client claims must have a corresponding key. Deserialized keys
// are structurally sound but shape-unconstrained; an evaluation server calls
// this at session-open so a mismatched or corrupted upload is rejected with
// an error instead of panicking mid-inference.
func ValidateRNSKeys(cfg RNSConfig, keys RNSPublicKeys) error {
	if keys.PK == nil || keys.RLK == nil || keys.RTKS == nil {
		return fmt.Errorf("hisa: incomplete key material (pk=%v rlk=%v rtks=%v)",
			keys.PK != nil, keys.RLK != nil, keys.RTKS != nil)
	}
	params := cfg.Params
	shape := cfg.KeyShape()
	n := params.N()
	chainRows := len(params.QChain())

	// Public key: chain primes only.
	if err := polyShape(keys.PK.B, chainRows, n, "public key B"); err != nil {
		return err
	}
	if err := polyShape(keys.PK.A, chainRows, n, "public key A"); err != nil {
		return err
	}

	// Switching keys: exactly the level, digit count and rows the plan cuts
	// each at, which are all the key-switch inner product will index.
	if err := params.ValidateSwitchingKey(keys.RLK.Key, shape.Relin); err != nil {
		return fmt.Errorf("hisa: relinearization key: %w", err)
	}

	if keys.RTKS.Keys == nil {
		return fmt.Errorf("hisa: rotation key set has no key map")
	}
	for g, swk := range keys.RTKS.Keys {
		level, ok := shape.Galois[g]
		if !ok {
			return fmt.Errorf("hisa: rotation key for Galois element %d is not in the key plan", g)
		}
		if err := params.ValidateSwitchingKey(swk, level); err != nil {
			return fmt.Errorf("hisa: rotation key (Galois %d): %w", g, err)
		}
	}
	for g := range shape.Galois {
		if _, ok := keys.RTKS.Keys[g]; !ok {
			return fmt.Errorf("hisa: key plan's rotation key for Galois element %d is missing", g)
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
