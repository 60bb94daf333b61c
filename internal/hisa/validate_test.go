package hisa

import (
	"strings"
	"testing"

	"chet/internal/ckks"
	"chet/internal/ring"
)

// TestValidateRNSKeysPinsHybridShape: admission accepts exactly the key
// shape the parameters' key switch indexes at each key's planned level —
// ⌈(ℓ+1)/α⌉ digits over ℓ+1 chain rows plus the special rows — and names
// what is wrong otherwise.
func TestValidateRNSKeysPinsHybridShape(t *testing.T) {
	mk := func(alpha int) (RNSConfig, RNSPublicKeys) {
		params, err := ckks.NewParameters(ckks.ParametersLiteral{
			LogN: 5, LogQ: []int{30, 25, 25, 25, 25}, LogP: 30, Alpha: alpha, LogScale: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := RNSConfig{Params: params, PRNG: ring.NewTestPRNG(7),
			Keys: &KeyPlan{Rotations: map[int]int{1: 4, 2: 2}, Relin: 3, Conjugate: -1}}
		return cfg, NewRNSBackend(cfg).PublicKeys()
	}
	p1, k1 := mk(1)
	p2, k2 := mk(2) // full chain: 3 digits (2+2+1) of 7 rows
	lower := p2
	lower.Keys = &KeyPlan{Rotations: map[int]int{1: 3, 2: 2}, Relin: 3, Conjugate: -1}
	extra := p2
	extra.Keys = &KeyPlan{Rotations: map[int]int{1: 4, 2: 2}, Relin: 3, Conjugate: 4}
	for _, c := range []struct {
		name string
		cfg  RNSConfig
		keys RNSPublicKeys
		want string // "" accepts
	}{
		{"α=1 keys under α=1", p1, k1, ""},
		{"α=2 keys under α=2", p2, k2, ""},
		{"α=1 keys under α=2", p2, k1, "digits"},
		{"α=2 keys under α=1", p1, k2, "digits"},
		{"a key above its planned level", lower, k2, "the key plan says 3"},
		{"a planned key missing", extra, k2, "missing"},
	} {
		err := ValidateRNSKeys(c.cfg, c.keys)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}

	// Right digit count, one row short on one digit of one rotation key.
	for g, swk := range k2.RTKS.Keys {
		short := *swk
		short.A = append([]*ring.Poly(nil), swk.A...)
		short.A[1] = &ring.Poly{Coeffs: swk.A[1].Coeffs[:len(swk.A[1].Coeffs)-1]}
		bad := k2
		bad.RTKS = &ckks.RotationKeySet{Keys: map[uint64]*ckks.SwitchingKey{g: &short}}
		bad.Rotations = nil
		if err := ValidateRNSKeys(p2, bad); err == nil || !strings.Contains(err.Error(), "rows") {
			t.Errorf("short row set: error %v, want one naming the row count", err)
		}
		break
	}
}
