package core

import (
	"math"
	"math/rand"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
	"chet/internal/tensor"
)

func randTensor(shape []int, bound float64, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

// testCNN is a small LeNet-style network.
func testCNN() (*circuit.Circuit, *tensor.Tensor) {
	b := circuit.NewBuilder("core-test-cnn")
	x := b.Input(1, 8, 8)
	x = b.Conv2D(x, randTensor([]int{2, 1, 3, 3}, 0.4, 1), randTensor([]int{2}, 0.2, 2), 1, 1, "conv1")
	x = b.Activation(x, 0.2, 0.8, "act1")
	x = b.AvgPool2D(x, 2, 2, "pool1")
	x = b.Conv2D(x, randTensor([]int{4, 2, 3, 3}, 0.4, 3), nil, 1, 0, "conv2")
	x = b.Activation(x, 0.2, 0.8, "act2")
	x = b.Flatten(x, "flat")
	x = b.Dense(x, randTensor([]int{3, 16}, 0.4, 4), randTensor([]int{3}, 0.2, 5), "fc")
	return b.Build(x), randTensor([]int{1, 8, 8}, 1, 6)
}

// testProgram is testCNN as the runtime executes it.
func testProgram() *circuit.Circuit {
	c, _ := testCNN()
	return circuit.Fold(c).Circuit
}

func TestSecurityTable(t *testing.T) {
	if MaxLogQ(13, 128) != 218 {
		t.Fatalf("MaxLogQ(13,128) = %d", MaxLogQ(13, 128))
	}
	if MaxLogQ(15, 256) != 476 {
		t.Fatalf("MaxLogQ(15,256) = %d", MaxLogQ(15, 256))
	}
	if MaxLogQ(9, 128) != 0 || MaxLogQ(13, 100) != 0 {
		t.Fatal("unsupported lookups must return 0")
	}
	n, err := MinLogN(400, 128)
	if err != nil || n != 14 {
		t.Fatalf("MinLogN(400,128) = %d, %v", n, err)
	}
	if _, err := MinLogN(5000, 128); err == nil {
		t.Fatal("expected error for impossible budget")
	}
	// Stronger security always shrinks the budget.
	for _, logN := range []int{10, 12, 14, 16} {
		if !(MaxLogQ(logN, 128) > MaxLogQ(logN, 192) && MaxLogQ(logN, 192) > MaxLogQ(logN, 256)) {
			t.Fatalf("security monotonicity violated at logN=%d", logN)
		}
	}
}

func TestCostModelShapes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCKKS, SchemeRNS} {
		m := DefaultCostModel(scheme)
		st := state{logQ: 400, r: 10}
		n := 16384.0
		if m.Add(n, st) <= 0 || m.ScalarMul(n, st) <= 0 || m.PlainMul(n, st) <= 0 ||
			m.CtMul(n, st) <= 0 || m.Rotate(n, st) <= 0 || m.Rescale(n, st) <= 0 {
			t.Fatalf("%v: non-positive costs", scheme)
		}
		// Rotation and ct-mult dominate additions, per Table 1.
		if m.Rotate(n, st) <= m.Add(n, st) {
			t.Fatalf("%v: rotation should cost more than addition", scheme)
		}
		// Costs grow with N.
		if m.Rotate(2*n, st) <= m.Rotate(n, st) {
			t.Fatalf("%v: cost not monotone in N", scheme)
		}
	}
	// The RNS key-switch row law: a rotation transforms β = ⌈r/α⌉ digits of
	// r+k rows each, then 2(r+k) rows in ModDown, over k = min(α, r) special
	// primes — (r+2)(r+1) per prime, and grouping α primes divides the digits.
	m := DefaultCostModel(SchemeRNS)
	perRow := m.Rotate(16384, state{r: 1}) / 6
	for _, c := range []struct{ r, alpha, rows float64 }{
		{4, 1, 30}, {8, 1, 90}, {8, 0, 90}, {8, 2, 60}, {8, 4, 48}, {8, 8, 48}, {7, 3, 50}, {2, 4, 12},
	} {
		if got := m.Rotate(16384, state{r: c.r, alpha: c.alpha}); math.Abs(got/perRow-c.rows) > 1e-9 {
			t.Fatalf("rotation at r=%g α=%g priced as %g rows, want %g", c.r, c.alpha, got/perRow, c.rows)
		}
	}
}

// TestAnalysisMatchesMeterOnRef: the analysis interpretation executes
// exactly the instruction stream the program replays on a real backend —
// the rotation steps a Meter counts over a replay on Ref are the ones the
// analysis, and the compiler's search result, counted.
func TestAnalysisMatchesMeterOnRef(t *testing.T) {
	src, img := testCNN()
	c := circuit.Fold(src).Circuit
	sc := htc.DefaultScales()
	policy := htc.PolicyCHW
	slots := 2048

	a := testAnalysis(Options{Scheme: SchemeCKKS}, 12)
	encA := htc.EncryptTensor(a, htc.PlanFor(c, policy), sc, tensor.New(img.Shape...))
	htc.Execute(a, c, encA, policy, sc, htc.ExecOptions{})

	comp, err := Compile(src, Options{Scheme: SchemeCKKS, SecurityBits: -1, MinLogN: 12, MaxLogN: 12, Scales: sc,
		Policies: []htc.LayoutPolicy{policy}})
	if err != nil {
		t.Fatal(err)
	}
	meter := hisa.NewMeter(hisa.NewRefBackend(slots), nil)
	comp.Execute(meter, comp.Encrypt(meter, img), 1)

	if a.RotationOps() != meter.Counts().Rotations() || comp.Best.RotationOps != a.RotationOps() {
		t.Fatalf("analysis rotations %d, compiled %d, metered replay %d",
			a.RotationOps(), comp.Best.RotationOps, meter.Counts().Rotations())
	}
	if len(a.Rotations()) == 0 {
		t.Fatal("no rotation keys collected")
	}
}

func TestCompileSelectsParameters(t *testing.T) {
	c, _ := testCNN()
	for _, scheme := range []Scheme{SchemeCKKS, SchemeRNS} {
		comp, err := Compile(c, Options{Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(comp.Trace) != len(htc.AllPolicies) {
			t.Fatalf("%v: expected %d policy results, got %d", scheme, len(htc.AllPolicies), len(comp.Trace))
		}
		best := comp.Best
		if best.LogN < 12 || best.LogN > 16 {
			t.Fatalf("%v: implausible LogN %d", scheme, best.LogN)
		}
		if best.LogQ <= 0 {
			t.Fatalf("%v: no modulus selected", scheme)
		}
		if len(best.Rotations) == 0 {
			t.Fatalf("%v: no rotation keys selected", scheme)
		}
		if best.EstimatedCost <= 0 {
			t.Fatalf("%v: no cost estimate", scheme)
		}
		// Security: the selected parameters fit the table budget.
		logQP := best.LogQ
		if scheme == SchemeRNS {
			logQP += float64(best.SpecialPrimes * best.SpecialBits)
			if best.SpecialPrimes < 1 {
				t.Fatalf("RNS special-prime count missing")
			}
			if len(best.RNSChainBits) == 0 {
				t.Fatalf("RNS chain missing")
			}
		}
		if float64(MaxLogQ(best.LogN, 128)) < logQP {
			t.Fatalf("%v: selected parameters are not 128-bit secure: logQP=%g at logN=%d",
				scheme, logQP, best.LogN)
		}
		// The best policy is the argmin of the trace.
		for _, r := range comp.Trace {
			if r.EstimatedCost < best.EstimatedCost {
				t.Fatalf("%v: best policy is not minimal", scheme)
			}
		}
	}
}

func TestCompiledSimBackendMeetsPrecision(t *testing.T) {
	// End-to-end: the parameters the compiler picks must be sufficient for
	// the circuit to execute within tolerance on the CKKS noise model.
	c, img := testCNN()
	want := c.Evaluate(img)

	comp, err := Compile(c, Options{Scheme: SchemeCKKS})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackend(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, img), 1), 1)[0]
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("output %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCompiledRNSBackendMeetsPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	c, img := testCNN()
	want := c.Evaluate(img)

	// Small insecure ring for test speed, mirroring the paper's
	// non-standard HEAAN comparison parameters.
	comp, err := Compile(c, Options{
		Scheme:       SchemeRNS,
		SecurityBits: -1,
		MinLogN:      11,
		MaxLogN:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackend(comp, ring.NewTestPRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	got := comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, img), 1), 1)[0]
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("output %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
	// The backend provisioned exactly the compiler-selected keys.
	rns := b.(*hisa.RNSBackend)
	if rns.ProvisionedRotations() != len(comp.Best.Rotations) {
		t.Fatalf("provisioned %d keys, compiler selected %d",
			rns.ProvisionedRotations(), len(comp.Best.Rotations))
	}
}

func TestPowerOfTwoBaselineNeedsMoreRotations(t *testing.T) {
	// Figure 7's premise: with only power-of-two keys, the circuit executes
	// more primitive rotations than with CHET-selected keys.
	c, _ := testCNN()
	opt, err := Compile(c, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(c, Options{Scheme: SchemeRNS, PowerOfTwoRotationsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Best.RotationOps <= opt.Best.RotationOps {
		t.Fatalf("power-of-two baseline executed %d rotations, CHET %d — baseline should be worse",
			base.Best.RotationOps, opt.Best.RotationOps)
	}
	if base.Best.EstimatedCost <= opt.Best.EstimatedCost {
		t.Fatal("power-of-two baseline should cost more")
	}
}

func TestSelectScales(t *testing.T) {
	c, img := testCNN()
	inputs := []*tensor.Tensor{img, randTensor([]int{1, 8, 8}, 1, 7)}
	sc, err := SelectScales(c, inputs, ScaleSearch{Tolerance: 0.05, Step: 4}, Options{Scheme: SchemeCKKS})
	if err != nil {
		t.Fatal(err)
	}
	// The search must have moved off the 2^40 start for at least one knob.
	start := math.Exp2(40)
	if sc.Pc >= start && sc.Pw >= start && sc.Pu >= start && sc.Pm >= start {
		t.Fatalf("search did not shrink any scale: %+v", sc)
	}
	// And the chosen scales must actually be acceptable end to end.
	comp, err := Compile(c, Options{Scheme: SchemeCKKS, Scales: sc})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackend(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Evaluate(img)
	got := comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, img), 1), 1)[0]
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 0.05 {
			t.Fatalf("selected scales violate tolerance at output %d: %g vs %g",
				i, got.Data[i], want.Data[i])
		}
	}
}

func TestSplitBits(t *testing.T) {
	cases := []struct {
		total, max int
		wantLen    int
	}{
		{52, 60, 1},
		{90, 60, 2},
		{180, 60, 3},
		{0, 60, 1},
	}
	for _, tc := range cases {
		got := splitBits(tc.total, tc.max)
		if len(got) != tc.wantLen {
			t.Fatalf("splitBits(%d,%d) = %v", tc.total, tc.max, got)
		}
		sum := 0
		for _, b := range got {
			if b > tc.max || b < 20 {
				t.Fatalf("splitBits(%d,%d) produced out-of-range prime %d", tc.total, tc.max, b)
			}
			sum += b
		}
		if tc.total > 0 && sum < tc.total {
			t.Fatalf("splitBits(%d,%d) sums to %d", tc.total, tc.max, sum)
		}
	}
}
