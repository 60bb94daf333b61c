package core

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"chet/internal/circuit"
	"chet/internal/htc"
	"chet/internal/tensor"
)

func TestAnalysisResultsAreDeterministic(t *testing.T) {
	c := testProgram()
	run := func() ([]int, float64, float64) {
		a := NewAnalysis(AnalysisConfig{Scheme: SchemeCKKS, Slots: 2048})
		sc := htc.DefaultScales()
		plan := htc.PlanFor(c, htc.PolicyCHW)
		enc := htc.EncryptTensor(a, plan, sc, tensor.New(1, 8, 8))
		htc.Execute(a, c, enc, htc.PolicyCHW, sc, htc.ExecOptions{})
		return a.Rotations(), a.PeakLogQ(), a.ConsumedLogQ()
	}
	r1, p1, c1 := run()
	r2, p2, c2 := run()
	if p1 != p2 || c1 != c2 || len(r1) != len(r2) {
		t.Fatal("analysis is not deterministic")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("rotation sets differ between runs")
		}
	}
}

func TestPeakCoversConsumption(t *testing.T) {
	c := testProgram()
	for _, scheme := range []Scheme{SchemeCKKS, SchemeRNS} {
		a := NewAnalysis(AnalysisConfig{Scheme: scheme, Slots: 2048})
		sc := htc.DefaultScales()
		plan := htc.PlanFor(c, htc.PolicyHW)
		enc := htc.EncryptTensor(a, plan, sc, tensor.New(1, 8, 8))
		htc.Execute(a, c, enc, htc.PolicyHW, sc, htc.ExecOptions{})
		if a.PeakLogQ() < a.ConsumedLogQ() {
			t.Fatalf("%v: peak %g below consumption %g", scheme, a.PeakLogQ(), a.ConsumedLogQ())
		}
		if a.ConsumedLogQ() <= 0 {
			t.Fatalf("%v: no modulus consumed by a circuit with multiplications", scheme)
		}
	}
}

func TestCompileErrorPaths(t *testing.T) {
	c, _ := testCNN()
	// A window too small to ever fit the layout.
	if _, err := Compile(c, Options{Scheme: SchemeCKKS, MinLogN: 4, MaxLogN: 4}); err == nil {
		t.Fatal("expected error when the layout cannot fit any allowed ring")
	}

	// 256-bit security with a deep circuit at a capped ring must fail.
	if _, err := Compile(c, Options{
		Scheme: SchemeCKKS, SecurityBits: 256, MaxLogN: 12,
	}); err == nil {
		t.Fatal("expected error when no ring meets the security budget")
	}
}

func TestHigherSecurityNeedsLargerRing(t *testing.T) {
	c, _ := testCNN()
	c128, err := Compile(c, Options{Scheme: SchemeCKKS, SecurityBits: 128})
	if err != nil {
		t.Fatal(err)
	}
	c256, err := Compile(c, Options{Scheme: SchemeCKKS, SecurityBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if c256.Best.LogN < c128.Best.LogN {
		t.Fatalf("256-bit security chose a smaller ring (2^%d) than 128-bit (2^%d)",
			c256.Best.LogN, c128.Best.LogN)
	}
}

func TestRNSChainSumsToLogQ(t *testing.T) {
	c, _ := testCNN()
	comp, err := Compile(c, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range comp.Best.RNSChainBits {
		sum += float64(b)
	}
	if math.Abs(sum-comp.Best.LogQ) > 1e-9 {
		t.Fatalf("chain bits sum %g != LogQ %g", sum, comp.Best.LogQ)
	}
	// The special primes are sized by the chosen α's candidate.
	chosen := SpecialCandidate{}
	for _, c := range comp.Best.SpecialTrace {
		if c.Alpha == comp.Best.SpecialPrimes {
			chosen = c
		}
	}
	if comp.Best.SpecialBits != chosen.Bits || chosen.Bits < 20 || chosen.Bits > 60 {
		t.Fatalf("special prime bits = %d, chosen candidate %+v", comp.Best.SpecialBits, chosen)
	}
}

func TestMaxRescaleRules(t *testing.T) {
	// CKKS: power-of-two divisors. RNS: products of idealized 40-bit primes.
	ck := NewAnalysis(AnalysisConfig{Scheme: SchemeCKKS, Slots: 64})
	rn := NewAnalysis(AnalysisConfig{Scheme: SchemeRNS, Slots: 64, RNSPrimeBits: 40})
	ct := ck.Encrypt(ck.Encode([]float64{1}, 1<<20))
	ctR := rn.Encrypt(rn.Encode([]float64{1}, 1<<20))

	f := func(ubBits uint8) bool {
		bits := int(ubBits%70) + 1
		ub := bigPow2(bits)
		d := ck.MaxRescale(ct, ub)
		// Largest power of two <= ub is ub itself here.
		if d.BitLen()-1 != bits {
			return false
		}
		dr := rn.MaxRescale(ctR, ub)
		wantPrimes := bits / 40
		if wantPrimes == 0 {
			return dr.Cmp(bigOne()) == 0
		}
		return dr.BitLen()-1 == wantPrimes*40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalysisScaleMismatchCaught(t *testing.T) {
	a := NewAnalysis(AnalysisConfig{Scheme: SchemeCKKS, Slots: 64})
	x := a.Encrypt(a.Encode([]float64{1}, 1<<20))
	y := a.Encrypt(a.Encode([]float64{1}, 1<<21))
	defer func() {
		if recover() == nil {
			t.Fatal("expected scale-mismatch panic")
		}
	}()
	a.Add(x, y)
}

func TestDeeperCircuitConsumesMoreModulus(t *testing.T) {
	build := func(depth int) *circuit.Circuit {
		b := circuit.NewBuilder("chain")
		x := b.Input(1, 4, 4)
		for i := 0; i < depth; i++ {
			x = b.Activation(x, 0.25, 1, "act")
		}
		return circuit.Fold(b.Build(x)).Circuit
	}
	measure := func(c *circuit.Circuit) float64 {
		a := NewAnalysis(AnalysisConfig{Scheme: SchemeCKKS, Slots: 64})
		sc := htc.DefaultScales()
		enc := htc.EncryptTensor(a, htc.PlanFor(c, htc.PolicyCHW), sc, tensor.New(1, 4, 4))
		htc.Execute(a, c, enc, htc.PolicyCHW, sc, htc.ExecOptions{})
		return a.ConsumedLogQ()
	}
	if !(measure(build(1)) < measure(build(3)) && measure(build(3)) < measure(build(6))) {
		t.Fatal("modulus consumption not monotone in circuit depth")
	}
}

func bigPow2(bits int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(bits))
}

func bigOne() *big.Int { return big.NewInt(1) }
