package hisa

import (
	"strings"
	"testing"

	"chet/internal/ckks"
	"chet/internal/ring"
)

// TestValidateRNSKeysPinsHybridShape: admission accepts exactly the key
// shape the parameters' key switch indexes — ⌈(L+1)/α⌉ digits of L+1+α rows —
// and names what is wrong otherwise.
func TestValidateRNSKeysPinsHybridShape(t *testing.T) {
	mk := func(alpha int) (*ckks.Parameters, RNSPublicKeys) {
		params, err := ckks.NewParameters(ckks.ParametersLiteral{
			LogN: 5, LogQ: []int{30, 25, 25, 25, 25}, LogP: 30, Alpha: alpha, LogScale: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := NewRNSBackend(RNSConfig{Params: params, PRNG: ring.NewTestPRNG(7), Rotations: []int{1, 2}})
		return params, b.PublicKeys()
	}
	p1, k1 := mk(1)
	p2, k2 := mk(2) // 3 digits (2+2+1) of 7 rows
	for _, c := range []struct {
		name   string
		params *ckks.Parameters
		keys   RNSPublicKeys
		want   string // "" accepts
	}{
		{"α=1 keys under α=1", p1, k1, ""},
		{"α=2 keys under α=2", p2, k2, ""},
		{"α=1 keys under α=2", p2, k1, "digits"},
		{"α=2 keys under α=1", p1, k2, "digits"},
	} {
		err := ValidateRNSKeys(c.params, c.keys)
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
