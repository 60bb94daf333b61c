package hisa

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"chet/internal/ckks"
	"chet/internal/ring"
)

func newRNSTestBackend(t testing.TB, rotations []int) *RNSBackend {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     50,
		LogScale: 40,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	cfg := RNSConfig{Params: params, PRNG: ring.NewTestPRNG(0xABCDEF)}
	if rotations != nil { // nil keeps the power-of-two defaults
		cfg.Keys = FullChainKeys(params, rotations...)
	}
	return NewRNSBackend(cfg)
}

// backendsUnderTest returns each backend with a matching slot count and a
// per-backend tolerance for comparing against exact plaintext results.
func backendsUnderTest(t testing.TB) []struct {
	b   Backend
	tol float64
} {
	return []struct {
		b   Backend
		tol float64
	}{
		{NewRefBackend(512), 1e-9},
		{NewSimBackend(SimParams{LogN: 10, LogQ: 240, Seed: 7}), 1e-3},
		{newRNSTestBackend(t, nil), 1e-2},
	}
}

func rv(n int, bound float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * bound
	}
	return v
}

const testScale = float64(1 << 40)

func TestBackendArithmeticConformance(t *testing.T) {
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		t.Run(b.Name(), func(t *testing.T) {
			slots := b.Slots()
			a := rv(slots, 2, 1)
			c := rv(slots, 2, 2)

			cta := b.Encrypt(b.Encode(a, testScale))
			ctc := b.Encrypt(b.Encode(c, testScale))

			check := func(name string, ct Ciphertext, want func(i int) float64, tol float64) {
				t.Helper()
				got := b.Decode(b.Decrypt(ct))
				for i := 0; i < slots; i++ {
					if math.Abs(got[i]-want(i)) > tol {
						t.Fatalf("%s slot %d: got %g want %g", name, i, got[i], want(i))
					}
				}
			}

			check("add", b.Add(cta, ctc), func(i int) float64 { return a[i] + c[i] }, tb.tol)
			check("sub", b.Sub(cta, ctc), func(i int) float64 { return a[i] - c[i] }, tb.tol)
			check("addScalar", b.AddScalar(cta, 1.25), func(i int) float64 { return a[i] + 1.25 }, tb.tol)
			check("subScalar", b.SubScalar(cta, 1.25), func(i int) float64 { return a[i] - 1.25 }, tb.tol)

			pt := b.Encode(c, testScale)
			check("addPlain", b.AddPlain(cta, pt), func(i int) float64 { return a[i] + c[i] }, tb.tol)
			check("subPlain", b.SubPlain(cta, pt), func(i int) float64 { return a[i] - c[i] }, tb.tol)

			// Multiplicative ops change the scale; rescale back down using
			// the HISA protocol before checking.
			rescaled := func(ct Ciphertext) Ciphertext {
				bound := new(big.Int).SetUint64(uint64(b.Scale(ct) / testScale))
				d := b.MaxRescale(ct, bound)
				return b.Rescale(ct, d)
			}

			check("mul", rescaled(b.Mul(cta, ctc)), func(i int) float64 { return a[i] * c[i] }, 10*tb.tol)
			check("mulPlain", rescaled(b.MulPlain(cta, pt)), func(i int) float64 { return a[i] * c[i] }, 10*tb.tol)
			check("mulScalar", rescaled(b.MulScalar(cta, -0.5, testScale)),
				func(i int) float64 { return a[i] * -0.5 }, 10*tb.tol)
		})
	}
}

func TestBackendRotationConformance(t *testing.T) {
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		t.Run(b.Name(), func(t *testing.T) {
			slots := b.Slots()
			a := rv(slots, 2, 3)
			ct := b.Encrypt(b.Encode(a, testScale))
			for _, k := range []int{1, 5, slots / 2, slots - 1} {
				got := b.Decode(b.Decrypt(b.RotLeft(ct, k)))
				for i := 0; i < slots; i++ {
					want := a[(i+k)%slots]
					if math.Abs(got[i]-want) > 10*tb.tol {
						t.Fatalf("rotLeft %d slot %d: got %g want %g", k, i, got[i], want)
					}
				}
				got = b.Decode(b.Decrypt(b.RotRight(ct, k)))
				for i := 0; i < slots; i++ {
					want := a[((i-k)%slots+slots)%slots]
					if math.Abs(got[i]-want) > 10*tb.tol {
						t.Fatalf("rotRight %d slot %d: got %g want %g", k, i, got[i], want)
					}
				}
			}
		})
	}
}

func TestBackendsAgreeOnPolynomialCircuit(t *testing.T) {
	// Evaluate y = (x^2 + 0.5x) rotated by 3, on every backend, and compare
	// to the exact computation.
	eval := func(b Backend, a []float64) []float64 {
		ct := b.Encrypt(b.Encode(a, testScale))
		sq := b.Mul(ct, ct)
		d := b.MaxRescale(sq, new(big.Int).SetUint64(uint64(b.Scale(sq)/testScale)))
		sq = b.Rescale(sq, d)
		// Multiply at full scale, then rescale by the same divisor so the
		// scales of sq and half match exactly.
		half := b.MulScalar(ct, 0.5, testScale)
		half = b.Rescale(half, d)
		sum := b.Add(sq, half)
		rot := b.RotLeft(sum, 3)
		return b.Decode(b.Decrypt(rot))
	}
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		slots := b.Slots()
		a := rv(slots, 1, 4)
		got := eval(b, a)
		for i := 0; i < slots; i++ {
			x := a[(i+3)%slots]
			want := x*x + 0.5*x
			if math.Abs(got[i]-want) > 20*tb.tol {
				t.Fatalf("%s slot %d: got %g want %g", b.Name(), i, got[i], want)
			}
		}
	}
}

func TestRotationSteps(t *testing.T) {
	all := func(int) bool { return true }
	none := func(int) bool { return false }

	if got := RotationSteps(0, 64, all); got != nil {
		t.Fatalf("rotation by 0 should yield no steps, got %v", got)
	}
	if got := RotationSteps(6, 64, all); len(got) != 1 || got[0] != 6 {
		t.Fatalf("exact key: want [6], got %v", got)
	}
	got := RotationSteps(6, 64, none)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("power-of-two decomposition of 6: want [2 4], got %v", got)
	}
	// Negative rotations normalize mod slots.
	got = RotationSteps(-1, 64, none)
	sum := 0
	for _, s := range got {
		sum += s
	}
	if sum != 63 {
		t.Fatalf("decomposition of -1 mod 64 should sum to 63, got %v", got)
	}
	// nil availability means every key exists.
	if got := RotationSteps(13, 64, nil); len(got) != 1 || got[0] != 13 {
		t.Fatalf("nil availability: want [13], got %v", got)
	}
}

func TestRNSBackendPowerOfTwoFallback(t *testing.T) {
	// Only key "1" provisioned: rotation by 5 must still be correct via
	// power-of-two decomposition (keys 1 and 4)... but 4 is not provisioned
	// either, so provision {1, 4} and rotate by 5.
	b := newRNSTestBackend(t, []int{1, 4})
	slots := b.Slots()
	a := rv(slots, 2, 5)
	ct := b.Encrypt(b.Encode(a, testScale))
	got := b.Decode(b.Decrypt(b.RotLeft(ct, 5)))
	for i := 0; i < slots; i++ {
		if math.Abs(got[i]-a[(i+5)%slots]) > 1e-2 {
			t.Fatalf("fallback rotation slot %d: got %g want %g", i, got[i], a[(i+5)%slots])
		}
	}
	if b.ProvisionedRotations() != 2 {
		t.Fatalf("provisioned = %d, want 2", b.ProvisionedRotations())
	}
}

func TestSimModulusExhaustionPanics(t *testing.T) {
	b := NewSimBackend(SimParams{LogN: 8, LogQ: 90, Seed: 1})
	a := rv(b.Slots(), 1, 6)
	ct := b.Encrypt(b.Encode(a, testScale))
	defer func() {
		if recover() == nil {
			t.Fatal("expected modulus-exhaustion panic")
		}
	}()
	// Each squaring doubles log(scale); 90 bits cannot absorb two rescales
	// at scale 2^40 plus the initial 40-bit message.
	for i := 0; i < 3; i++ {
		ct = b.Mul(ct, ct)
		d := b.MaxRescale(ct, new(big.Int).SetUint64(1<<40))
		ct = b.Rescale(ct, d)
	}
}

func TestSimNoiseGrowsWithDepth(t *testing.T) {
	b := NewSimBackend(SimParams{LogN: 12, LogQ: 600, Seed: 2})
	a := rv(b.Slots(), 1, 7)
	ct := b.Encrypt(b.Encode(a, testScale))
	prev := b.NoiseOf(ct)
	for i := 0; i < 3; i++ {
		ct = b.Mul(ct, ct)
		d := b.MaxRescale(ct, new(big.Int).SetUint64(1<<40))
		ct = b.Rescale(ct, d)
		if n := b.NoiseOf(ct); n <= prev {
			t.Fatalf("depth %d: noise %g did not grow from %g", i+1, n, prev)
		} else {
			prev = n
		}
	}
}

func TestRNSMaxRescaleMatchesChain(t *testing.T) {
	b := newRNSTestBackend(t, nil)
	a := rv(b.Slots(), 1, 8)
	ct := b.Encrypt(b.Encode(a, testScale))

	// ub below the top prime: no rescale possible.
	if d := b.MaxRescale(ct, big.NewInt(1<<20)); d.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("MaxRescale below top prime: got %v, want 1", d)
	}

	// ub above the top prime: exactly the top prime.
	top := b.Params().Qi(b.Params().MaxLevel())
	d := b.MaxRescale(ct, new(big.Int).SetUint64(1<<45))
	if d.Uint64() != top {
		t.Fatalf("MaxRescale: got %v, want top prime %d", d, top)
	}

	// Rescaling by it drops exactly one level.
	out := b.Rescale(ct, d)
	if lvl := b.LevelOf(out); lvl != b.Params().MaxLevel()-1 {
		t.Fatalf("level after rescale = %d", lvl)
	}
	// Input is untouched (functional semantics).
	if lvl := b.LevelOf(ct); lvl != b.Params().MaxLevel() {
		t.Fatal("Rescale mutated its input")
	}
}

func TestMeterCounts(t *testing.T) {
	inner := NewRefBackend(64)
	m := NewMeter(inner, func(x int) int {
		return len(RotationSteps(x, 64, func(int) bool { return false }))
	})

	a := rv(64, 1, 9)
	ct := m.Encrypt(m.Encode(a, testScale))
	ct2 := m.Add(ct, ct)
	ct2 = m.Mul(ct2, ct)
	ct2 = m.RotLeft(ct2, 6) // decomposes into 2 power-of-two steps
	ct2 = m.RotLeft(ct2, 0) // free
	d := m.MaxRescale(ct2, big.NewInt(1<<40))
	ct2 = m.Rescale(ct2, d)
	m.Decode(m.Decrypt(ct2))

	c := m.Counts()
	if c[OpEncrypt] != 1 || c[OpDecrypt] != 1 || c[OpEncode] != 1 || c[OpDecode] != 1 {
		t.Fatalf("IO counts wrong: %+v", c)
	}
	if c[OpAdd] != 1 || c[OpMul] != 1 {
		t.Fatalf("arith counts wrong: %+v", c)
	}
	if c.Rotations() != 2 {
		t.Fatalf("rotation steps = %d, want 2", c.Rotations())
	}
	if c[OpRescale] != 1 || c[OpMaxRescale] != 1 {
		t.Fatalf("rescale counts wrong: %+v", c)
	}
	if c.Total() != 7 {
		t.Fatalf("total = %d, want 7", c.Total())
	}
}

func TestRefBackendRejectsForeignHandles(t *testing.T) {
	b := NewRefBackend(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on foreign ciphertext")
		}
	}()
	b.Add("not a ciphertext", "also not")
}
