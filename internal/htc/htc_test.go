package htc

import (
	"math"
	"math/rand"
	"testing"

	"chet/internal/circuit"
	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
	"chet/internal/tensor"
)

func refBackend() hisa.Backend { return hisa.NewRefBackend(4096) }

func randTensor(shape []int, bound float64, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

func tensorsClose(t *testing.T, name string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d want %d (shapes %v vs %v)", name, got.Size(), want.Size(), got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("%s: element %d = %g, want %g (err %g)", name, i, got.Data[i], want.Data[i],
				math.Abs(got.Data[i]-want.Data[i]))
		}
	}
}

func roundTrip(t *testing.T, layout Layout, apron int, in *tensor.Tensor,
	f func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor) *tensor.Tensor {
	t.Helper()
	b := refBackend()
	sc := DefaultScales()
	ct := EncryptTensor(b, Plan{Layout: layout, Apron: apron}, sc, in)
	out := f(b, ct, sc)
	res := DecryptTensor(b, out, 1)[0]
	if out.H == 1 && out.W > 1 && out.C == 1 {
		return res.Reshape(res.Size())
	}
	return res
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	in := randTensor([]int{3, 5, 4}, 2, 1)
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 2, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor { return ct })
		tensorsClose(t, layout.String(), got, in, 1e-9)
	}
}

func TestConv2DMatchesReference(t *testing.T) {
	in := randTensor([]int{3, 8, 8}, 1, 2)
	filters := randTensor([]int{4, 3, 3, 3}, 0.5, 3)
	bias := randTensor([]int{4}, 0.2, 4)

	cases := []struct {
		name        string
		stride, pad int
	}{
		{"valid-s1", 1, 0},
		{"same-s1", 1, 1},
		{"valid-s2", 2, 0},
		{"same-s2", 2, 1},
	}
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		for _, tc := range cases {
			want := tensor.AddBiasPerChannel(tensor.Conv2D(in, filters, tc.stride, tc.pad), bias)
			got := roundTrip(t, layout, tc.pad, in,
				func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
					return Conv2D(b, ct, filters, bias, tc.stride, tc.pad, sc, ExecOptions{})
				})
			tensorsClose(t, layout.String()+"/"+tc.name, got, want, 1e-6)
		}
	}
}

func TestConv2DStacked(t *testing.T) {
	// Two convolutions in sequence exercise the strided-grid metadata.
	in := randTensor([]int{2, 9, 9}, 1, 5)
	f1 := randTensor([]int{3, 2, 3, 3}, 0.4, 6)
	f2 := randTensor([]int{2, 3, 2, 2}, 0.4, 7)
	want := tensor.Conv2D(tensor.Conv2D(in, f1, 2, 0), f2, 1, 0)

	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				c1 := Conv2D(b, ct, f1, nil, 2, 0, sc, ExecOptions{})
				return Conv2D(b, c1, f2, nil, 1, 0, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
}

func TestAvgPool2DMatchesReference(t *testing.T) {
	in := randTensor([]int{3, 6, 6}, 1, 8)
	want := tensor.AvgPool2D(in, 2, 2)
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				return AvgPool2D(b, ct, 2, 2, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
}

func TestGlobalAvgPoolMatchesReference(t *testing.T) {
	for _, dims := range [][]int{{4, 4, 4}, {3, 5, 6}} {
		in := randTensor(dims, 1, 9)
		want := tensor.GlobalAvgPool2D(in)
		for _, layout := range []Layout{LayoutHW, LayoutCHW} {
			got := roundTrip(t, layout, 0, in,
				func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
					return GlobalAvgPool2D(b, ct, sc, ExecOptions{})
				})
			got = got.Reshape(got.Size())
			tensorsClose(t, layout.String(), got, want, 1e-6)
		}
	}
}

func TestActivationMatchesReference(t *testing.T) {
	in := randTensor([]int{2, 4, 4}, 1, 10)
	want := tensor.PolyActivation(in, 0.3, -0.7)
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				return Activation(b, ct, 0.3, -0.7, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
	// Linear-only activation path.
	wantLin := tensor.PolyActivation(in, 0, 2)
	got := roundTrip(t, LayoutCHW, 0, in,
		func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
			return Activation(b, ct, 0, 2, sc, ExecOptions{})
		})
	tensorsClose(t, "linear", got, wantLin, 1e-6)
}

func TestBatchNormMatchesReference(t *testing.T) {
	in := randTensor([]int{4, 3, 3}, 1, 11)
	gamma := randTensor([]int{4}, 1, 12)
	beta := randTensor([]int{4}, 1, 13)
	want := tensor.BatchNorm(in, gamma, beta)
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				return BatchNorm(b, ct, gamma, beta, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
}

func TestAddAndConcat(t *testing.T) {
	x := randTensor([]int{4, 3, 3}, 1, 14)
	y := randTensor([]int{4, 3, 3}, 1, 15)
	wantSum := tensor.Add(x, y)
	wantCat := tensor.ConcatChannels(x, y)

	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		b := refBackend()
		sc := DefaultScales()
		plan := Plan{Layout: layout}
		cx := EncryptTensor(b, plan, sc, x)
		cy := EncryptTensor(b, plan, sc, y)
		gotSum := DecryptTensor(b, Add(b, cx, cy, ExecOptions{}), 1)[0]
		tensorsClose(t, layout.String()+"/add", gotSum, wantSum, 1e-9)
		gotCat := DecryptTensor(b, Concat(b, sc, ExecOptions{}, cx, cy), 1)[0]
		tensorsClose(t, layout.String()+"/concat", gotCat, wantCat, 1e-6)
	}
}

func TestConcatUnalignedCHW(t *testing.T) {
	// 3 channels with CPerCT 2 forces the mask-and-rotate slow path.
	b := hisa.NewRefBackend(64)
	sc := DefaultScales()
	x := randTensor([]int{3, 2, 2}, 1, 16)
	y := randTensor([]int{2, 2, 2}, 1, 17)
	plan := Plan{Layout: LayoutCHW}
	cx := EncryptTensor(b, plan, sc, x)
	cy := EncryptTensor(b, plan, sc, y)
	if cx.CPerCT < 2 {
		t.Skip("slot budget too small to pack channels")
	}
	got := DecryptTensor(b, Concat(b, sc, ExecOptions{}, cx, cy), 1)[0]
	tensorsClose(t, "unaligned concat", got, tensor.ConcatChannels(x, y), 1e-6)
}

func TestDenseMatchesReference(t *testing.T) {
	in := randTensor([]int{2, 3, 3}, 1, 18)
	w := randTensor([]int{5, 18}, 0.5, 19)
	bias := randTensor([]int{5}, 0.2, 20)
	want := tensor.MatVec(w, in.Reshape(in.Size()), bias)
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				return Dense(b, ct, w, bias, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
}

func TestDenseAfterStridedConv(t *testing.T) {
	in := randTensor([]int{1, 6, 6}, 1, 21)
	f := randTensor([]int{2, 1, 3, 3}, 0.4, 22)
	w := randTensor([]int{3, 8}, 0.5, 23)
	conv := tensor.Conv2D(in, f, 2, 0) // 2x2x2
	want := tensor.MatVec(w, conv.Reshape(conv.Size()), nil)

	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				c := Conv2D(b, ct, f, nil, 2, 0, sc, ExecOptions{})
				return Dense(b, c, w, nil, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
}

func TestPad2DIsFree(t *testing.T) {
	in := randTensor([]int{2, 3, 3}, 1, 24)
	want := tensor.Pad2D(in, 1)
	b := refBackend()
	sc := DefaultScales()
	m := hisa.NewMeter(b, nil)
	ct := EncryptTensor(m, Plan{Layout: LayoutCHW, Apron: 1}, sc, in)
	before := m.Counts().Total()
	out := Pad2D(ct, 1)
	if m.Counts().Total() != before {
		t.Fatal("Pad2D executed homomorphic operations; it must be metadata-only")
	}
	tensorsClose(t, "pad", DecryptTensor(m, out, 1)[0], want, 1e-9)
}

func TestLayoutConversions(t *testing.T) {
	in := randTensor([]int{4, 3, 3}, 1, 25)
	b := refBackend()
	sc := DefaultScales()
	hw := EncryptTensor(b, Plan{Layout: LayoutHW}, sc, in)
	chw := ToCHW(b, hw, ExecOptions{})
	if chw.Layout != LayoutCHW {
		t.Fatal("ToCHW did not change layout")
	}
	tensorsClose(t, "hw->chw", DecryptTensor(b, chw, 1)[0], in, 1e-9)
	back := ToHW(b, chw, sc, ExecOptions{})
	if back.Layout != LayoutHW || back.NumCTs() != 4 {
		t.Fatalf("ToHW produced layout %v with %d cts", back.Layout, back.NumCTs())
	}
	tensorsClose(t, "chw->hw", DecryptTensor(b, back, 1)[0], in, 1e-6)
}

// testCNN builds a LeNet-style circuit small enough for every backend.
func testCNN() (*circuit.Circuit, *tensor.Tensor) {
	b := circuit.NewBuilder("test-cnn")
	x := b.Input(1, 8, 8)
	f1 := randTensor([]int{2, 1, 3, 3}, 0.4, 30)
	x = b.Conv2D(x, f1, randTensor([]int{2}, 0.2, 31), 1, 1, "conv1")
	x = b.Activation(x, 0.2, 0.8, "act1")
	x = b.AvgPool2D(x, 2, 2, "pool1") // 2x4x4
	f2 := randTensor([]int{4, 2, 3, 3}, 0.4, 32)
	x = b.Conv2D(x, f2, nil, 1, 0, "conv2") // 4x2x2
	x = b.Activation(x, 0.2, 0.8, "act2")
	x = b.Flatten(x, "flat")
	x = b.Dense(x, randTensor([]int{10, 16}, 0.4, 33), randTensor([]int{10}, 0.2, 34), "fc1")
	x = b.Activation(x, 0.2, 0.8, "act3")
	x = b.Dense(x, randTensor([]int{3, 10}, 0.4, 35), nil, "fc2")
	c := b.Build(x)
	img := randTensor([]int{1, 8, 8}, 1, 36)
	return c, img
}

func TestExecuteAllPoliciesOnRef(t *testing.T) {
	c, img := testCNN()
	want := c.Evaluate(img)
	for _, policy := range AllPolicies {
		b := refBackend()
		sc := DefaultScales()
		in := EncryptTensor(b, PlanFor(c, policy), sc, img)
		out := Execute(b, c, in, policy, sc, ExecOptions{})
		got := DecryptTensor(b, out, 1)[0]
		got = got.Reshape(got.Size())
		tensorsClose(t, policy.String(), got, want, 1e-5)
	}
}

func TestRequiredApron(t *testing.T) {
	c, _ := testCNN()
	// conv1 has pad 1 at cumulative stride 1; conv2 has pad 0.
	if got := RequiredApron(c); got != 1 {
		t.Fatalf("RequiredApron = %d, want 1", got)
	}

	// Padded conv after a stride-2 pool needs a doubled apron.
	b := circuit.NewBuilder("deep-pad")
	x := b.Input(1, 8, 8)
	x = b.AvgPool2D(x, 2, 2, "pool")
	x = b.Conv2D(x, randTensor([]int{1, 1, 3, 3}, 1, 37), nil, 1, 1, "conv")
	c2 := b.Build(x)
	if got := RequiredApron(c2); got != 2 {
		t.Fatalf("RequiredApron = %d, want 2", got)
	}
}

func TestExecuteOnSimBackend(t *testing.T) {
	c, img := testCNN()
	want := c.Evaluate(img)
	b := hisa.NewSimBackend(hisa.SimParams{LogN: 13, LogQ: 900, Seed: 5})
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	in := EncryptTensor(b, PlanFor(c, PolicyCHW), sc, img)
	out := Execute(b, c, in, PolicyCHW, sc, ExecOptions{})
	got := DecryptTensor(b, out, 1)[0]
	got = got.Reshape(got.Size())
	tensorsClose(t, "sim", got, want, 5e-2)
}

func TestExecuteOnRealRNSCKKS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	c, img := testCNN()
	want := c.Evaluate(img)

	// The circuit performs 15 rescales (each conv/dense costs two: weights
	// plus mask; activations two; pooling one), so the chain needs 16
	// primes. Security is irrelevant for this functional test.
	logQ := []int{50}
	for i := 0; i < 15; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     11,
		LogQ:     logQ,
		LogP:     50,
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(99)})
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	in := EncryptTensor(b, PlanFor(c, PolicyCHW), sc, img)
	out := Execute(b, c, in, PolicyCHW, sc, ExecOptions{})
	got := DecryptTensor(b, out, 1)[0]
	got = got.Reshape(got.Size())
	tensorsClose(t, "rns", got, want, 1e-2)
}
