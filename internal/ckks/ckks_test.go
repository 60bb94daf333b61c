package ckks

import (
	"math"
	"math/rand"
	"testing"

	"chet/internal/ring"
)

// testContext bundles everything needed to exercise the scheme.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kgen   *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinearizationKey
	encr   *Encryptor
	decr   *Decryptor
}

func newTestContext(t testing.TB) *testContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     50,
		LogScale: 40,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	prng := ring.NewTestPRNG(0xC0FFEE)
	kgen := NewKeyGenerator(params, prng)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk, params.MaxLevel())
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kgen:   kgen,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		encr:   NewEncryptor(params, pk, prng),
		decr:   NewDecryptor(params, sk),
	}
}

func randomVector(n int, bound float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * bound
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestEncoderRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	slots := tc.params.Slots()
	values := randomVector(slots, 10, 1)
	pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	got := tc.enc.Decode(pt)
	if d := maxAbsDiff(values, got); d > 1e-7 {
		t.Fatalf("encoder roundtrip error %g too large", d)
	}
}

func TestEncoderPartialVector(t *testing.T) {
	tc := newTestContext(t)
	values := []float64{1.5, -2.25, 3.75}
	pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	got := tc.enc.Decode(pt)
	for i, want := range values {
		if math.Abs(got[i]-want) > 1e-7 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], want)
		}
	}
	for i := len(values); i < 8; i++ {
		if math.Abs(got[i]) > 1e-7 {
			t.Fatalf("padding slot %d not ~0: %g", i, got[i])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t)
	values := randomVector(tc.params.Slots(), 10, 2)
	pt := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	ct := tc.encr.Encrypt(pt)
	got := tc.enc.Decode(tc.decr.Decrypt(ct))
	if d := maxAbsDiff(values, got); d > 1e-5 {
		t.Fatalf("encrypt/decrypt error %g too large", d)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 10, 3)
	b := randomVector(slots, 10, 4)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()

	cta := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	ctb := tc.encr.Encrypt(tc.enc.Encode(b, scale, level))

	sum := tc.enc.Decode(tc.decr.Decrypt(ev.Add(cta, ctb)))
	diff := tc.enc.Decode(tc.decr.Decrypt(ev.Sub(cta, ctb)))
	for i := 0; i < slots; i++ {
		if math.Abs(sum[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("slot %d: add error", i)
		}
		if math.Abs(diff[i]-(a[i]-b[i])) > 1e-4 {
			t.Fatalf("slot %d: sub error", i)
		}
	}
}

func TestAddPlainAndScalar(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 10, 5)
	b := randomVector(slots, 10, 6)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()

	ct := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	pt := tc.enc.Encode(b, scale, level)

	got := tc.enc.Decode(tc.decr.Decrypt(ev.AddPlain(ct, pt)))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("AddPlain slot %d: got %g want %g", i, got[i], a[i]+b[i])
		}
	}

	got = tc.enc.Decode(tc.decr.Decrypt(ev.AddScalar(ct, 2.5)))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-(a[i]+2.5)) > 1e-4 {
			t.Fatalf("AddScalar slot %d: got %g want %g", i, got[i], a[i]+2.5)
		}
	}

	got = tc.enc.Decode(tc.decr.Decrypt(ev.SubPlain(ct, pt)))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-(a[i]-b[i])) > 1e-4 {
			t.Fatalf("SubPlain slot %d", i)
		}
	}
}

func TestMulPlainWithRescale(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 4, 7)
	w := randomVector(slots, 4, 8)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()

	ct := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	pt := tc.enc.Encode(w, scale, level)

	prod := ev.MulPlain(ct, pt)
	if !sameScale(prod.Scale, scale*scale) {
		t.Fatalf("product scale %g, want %g", prod.Scale, scale*scale)
	}
	ev.Rescale(prod)
	if prod.Lvl != level-1 {
		t.Fatalf("level after rescale = %d, want %d", prod.Lvl, level-1)
	}

	got := tc.enc.Decode(tc.decr.Decrypt(prod))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-a[i]*w[i]) > 1e-3 {
			t.Fatalf("MulPlain slot %d: got %g want %g", i, got[i], a[i]*w[i])
		}
	}
}

func TestMulScalar(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 4, 9)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()

	ct := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	prod := ev.MulScalar(ct, -1.75, scale)
	ev.Rescale(prod)
	got := tc.enc.Decode(tc.decr.Decrypt(prod))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-a[i]*-1.75) > 1e-3 {
			t.Fatalf("MulScalar slot %d: got %g want %g", i, got[i], a[i]*-1.75)
		}
	}
}

func TestMulCiphertext(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 4, 10)
	b := randomVector(slots, 4, 11)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()

	cta := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	ctb := tc.encr.Encrypt(tc.enc.Encode(b, scale, level))

	prod := ev.Mul(cta, ctb)
	ev.Rescale(prod)
	got := tc.enc.Decode(tc.decr.Decrypt(prod))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-2 {
			t.Fatalf("Mul slot %d: got %g want %g (err %g)", i, got[i], a[i]*b[i],
				math.Abs(got[i]-a[i]*b[i]))
		}
	}
}

func TestMulDepthTwo(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 2, 12)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()

	ct := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))
	sq := ev.Mul(ct, ct)
	ev.Rescale(sq)
	quad := ev.Mul(sq, sq)
	ev.Rescale(quad)

	got := tc.enc.Decode(tc.decr.Decrypt(quad))
	for i := 0; i < slots; i++ {
		want := a[i] * a[i] * a[i] * a[i]
		if math.Abs(got[i]-want) > 5e-2 {
			t.Fatalf("x^4 slot %d: got %g want %g", i, got[i], want)
		}
	}
}

func TestRotation(t *testing.T) {
	tc := newTestContext(t)
	slots := tc.params.Slots()
	rotations := []int{1, 2, 7, slots / 2, -3}
	rtks := tc.kgen.GenRotationKeys(tc.sk, rotations, false)
	ev := NewEvaluator(tc.params, nil, rtks)

	a := randomVector(slots, 8, 13)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()
	ct := tc.encr.Encrypt(tc.enc.Encode(a, scale, level))

	for _, k := range rotations {
		rot := ev.RotateLeft(ct, k)
		got := tc.enc.Decode(tc.decr.Decrypt(rot))
		for i := 0; i < slots; i++ {
			want := a[((i+k)%slots+slots)%slots]
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("rotate %d slot %d: got %g want %g", k, i, got[i], want)
			}
		}
	}
}

func TestRotationZeroIsIdentity(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, nil, false)
	ev := NewEvaluator(tc.params, nil, rtks)
	a := randomVector(tc.params.Slots(), 8, 14)
	ct := tc.encr.Encrypt(tc.enc.Encode(a, tc.params.DefaultScale(), tc.params.MaxLevel()))
	rot := ev.RotateLeft(ct, 0)
	got := tc.enc.Decode(tc.decr.Decrypt(rot))
	if d := maxAbsDiff(a, got); d > 1e-4 {
		t.Fatalf("rotation by 0 changed the message: %g", d)
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, nil, true)
	ev := NewEvaluator(tc.params, nil, rtks)
	slots := tc.params.Slots()

	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = complex(float64(i%7), float64(i%5)-2)
	}
	pt := tc.enc.EncodeComplex(vals, tc.params.DefaultScale(), tc.params.MaxLevel())
	ct := tc.encr.Encrypt(pt)
	conj := ev.Conjugate(ct)
	got := tc.enc.DecodeComplex(tc.decr.Decrypt(conj))
	for i := range vals {
		want := complex(real(vals[i]), -imag(vals[i]))
		if math.Abs(real(got[i])-real(want)) > 1e-3 || math.Abs(imag(got[i])-imag(want)) > 1e-3 {
			t.Fatalf("conjugate slot %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestMissingRotationKeyError(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{1}, false)
	ev := NewEvaluator(tc.params, nil, rtks)
	ct := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, tc.params.DefaultScale(), tc.params.MaxLevel()))

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing rotation key")
		}
	}()
	ev.RotateLeft(ct, 3)
}

func TestLevelAlignment(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	slots := tc.params.Slots()
	a := randomVector(slots, 4, 15)
	b := randomVector(slots, 4, 16)
	scale := tc.params.DefaultScale()

	cta := tc.encr.Encrypt(tc.enc.Encode(a, scale, tc.params.MaxLevel()))
	ctb := tc.encr.Encrypt(tc.enc.Encode(b, scale, tc.params.MaxLevel()))
	ev.DropToLevel(ctb, tc.params.MaxLevel()-2)

	sum := ev.Add(cta, ctb)
	if sum.Lvl != tc.params.MaxLevel()-2 {
		t.Fatalf("sum level = %d, want %d", sum.Lvl, tc.params.MaxLevel()-2)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(sum))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("cross-level add slot %d", i)
		}
	}
	// Original operand is untouched.
	if cta.Lvl != tc.params.MaxLevel() {
		t.Fatal("Add mutated its input level")
	}
}

func TestScaleMismatchPanics(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	scale := tc.params.DefaultScale()
	cta := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, scale, tc.params.MaxLevel()))
	ctb := tc.encr.Encrypt(tc.enc.Encode([]float64{1}, scale*2, tc.params.MaxLevel()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scale mismatch")
		}
	}()
	ev.Add(cta, ctb)
}

func TestRescaleScaleTracking(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	scale := tc.params.DefaultScale()
	level := tc.params.MaxLevel()
	ct := tc.encr.Encrypt(tc.enc.Encode([]float64{3}, scale, level))

	prod := ev.MulScalar(ct, 2, scale)
	wantScale := scale * scale / float64(tc.params.Qi(level))
	ev.Rescale(prod)
	if !sameScale(prod.Scale, wantScale) {
		t.Fatalf("scale after rescale = %g, want %g", prod.Scale, wantScale)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(prod))
	if math.Abs(got[0]-6) > 1e-3 {
		t.Fatalf("got %g want 6", got[0])
	}
}

func TestEncodeHighScaleBigPath(t *testing.T) {
	tc := newTestContext(t)
	// A scale of 2^80 forces the big.Int encoding path.
	scale := math.Exp2(80)
	values := []float64{0.5, -0.25}
	pt := tc.enc.Encode(values, scale, tc.params.MaxLevel())
	got := tc.enc.Decode(pt)
	for i, want := range values {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("big-path slot %d: got %g want %g", i, got[i], want)
		}
	}
}
