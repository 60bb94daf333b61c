package htc

import (
	"math"
	"testing"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestConv2DMultiGroupCHW(t *testing.T) {
	// Force multiple ciphertexts per tensor: 6 channels of 2x2 on a 16-slot
	// backend pack 4 channels per ciphertext.
	b := hisa.NewRefBackend(16)
	sc := DefaultScales()
	in := randTensor([]int{6, 2, 2}, 1, 61)
	filters := randTensor([]int{3, 6, 1, 1}, 0.5, 62)
	want := tensor.Conv2D(in, filters, 1, 0)

	ct := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, in)
	if ct.NumCTs() < 2 {
		t.Fatalf("expected multi-ciphertext packing, got %d cts (CPerCT=%d)", ct.NumCTs(), ct.CPerCT)
	}
	out := Conv2D(b, ct, filters, nil, 1, 0, sc, ExecOptions{})
	tensorsClose(t, "multi-group conv", DecryptTensor(b, out, 1)[0], want, 1e-6)
}

func TestPoolWindowNotEqualStride(t *testing.T) {
	// Overlapping pooling (window 3, stride 1) exercises independent window
	// and stride handling.
	in := randTensor([]int{2, 5, 5}, 1, 65)
	want := tensor.AvgPool2D(in, 3, 1)
	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		got := roundTrip(t, layout, 0, in,
			func(b hisa.Backend, ct *CipherTensor, sc Scales) *CipherTensor {
				return AvgPool2D(b, ct, 3, 1, sc, ExecOptions{})
			})
		tensorsClose(t, layout.String(), got, want, 1e-6)
	}
}

func TestScaleProtocolKeepsWorkingScale(t *testing.T) {
	// After each kernel the ciphertext scale must sit near the base Pc —
	// the rescaling protocol at work (Section 5.5 of the paper).
	b := hisa.NewRefBackend(1024)
	sc := DefaultScales()
	in := randTensor([]int{2, 6, 6}, 1, 66)
	ct := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, in)

	conv := Conv2D(b, ct, randTensor([]int{2, 2, 3, 3}, 0.5, 67), nil, 1, 0, sc, ExecOptions{})
	for _, c := range conv.CTs {
		if s := b.Scale(c); math.Abs(math.Log2(s)-math.Log2(sc.Pc)) > 1 {
			t.Fatalf("conv output scale 2^%.1f drifted from base 2^%.1f",
				math.Log2(s), math.Log2(sc.Pc))
		}
	}
	act := Activation(b, conv, 0.25, 1, sc, ExecOptions{})
	for _, c := range act.CTs {
		if s := b.Scale(c); math.Abs(math.Log2(s)-math.Log2(sc.Pc)) > 1 {
			t.Fatalf("activation output scale 2^%.1f drifted", math.Log2(s))
		}
	}
}

func TestKernelValidationPanics(t *testing.T) {
	b := hisa.NewRefBackend(1024)
	sc := DefaultScales()
	in := randTensor([]int{2, 4, 4}, 1, 68)
	ct := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, in)

	assertPanics(t, "conv filter channels", func() {
		Conv2D(b, ct, randTensor([]int{2, 3, 3, 3}, 1, 69), nil, 1, 0, sc, ExecOptions{})
	})
	assertPanics(t, "conv without apron", func() {
		Conv2D(b, ct, randTensor([]int{2, 2, 3, 3}, 1, 70), nil, 1, 1, sc, ExecOptions{})
	})
	assertPanics(t, "pool empty output", func() {
		AvgPool2D(b, ct, 5, 1, sc, ExecOptions{})
	})
	assertPanics(t, "dense weight size", func() {
		Dense(b, ct, randTensor([]int{2, 5}, 1, 71), nil, sc, ExecOptions{})
	})
	assertPanics(t, "polyeval degree 0", func() {
		PolyEval(b, ct, []float64{1}, sc, ExecOptions{})
	})
	assertPanics(t, "pad without apron", func() {
		Pad2D(ct, 1)
	})
	assertPanics(t, "batchnorm size", func() {
		BatchNorm(b, ct, tensor.New(3), tensor.New(3), sc, ExecOptions{})
	})
	assertPanics(t, "encrypt non-CHW", func() {
		EncryptTensor(b, Plan{Layout: LayoutHW}, sc, tensor.New(4))
	})
	assertPanics(t, "layout too big for slots", func() {
		small := hisa.NewRefBackend(16)
		EncryptTensor(small, Plan{Layout: LayoutHW}, sc, randTensor([]int{1, 8, 8}, 1, 72))
	})

	other := EncryptTensor(b, Plan{Layout: LayoutHW}, sc, randTensor([]int{2, 4, 4}, 1, 73))
	assertPanics(t, "add layout mismatch", func() {
		Add(b, ct, other, ExecOptions{})
	})
	assertPanics(t, "concat geometry mismatch", func() {
		pooled := AvgPool2D(b, ct, 2, 2, sc, ExecOptions{})
		Concat(b, sc, ExecOptions{}, ct, pooled)
	})
}

func TestExecutePolicyInputMismatchPanics(t *testing.T) {
	c, img := testCNN()
	b := refBackend()
	sc := DefaultScales()
	in := EncryptTensor(b, PlanFor(c, PolicyCHW), sc, img)
	assertPanics(t, "wrong input layout", func() {
		Execute(b, c, in, PolicyHW, sc, ExecOptions{})
	})
}

func TestConcatThreeWay(t *testing.T) {
	b := hisa.NewRefBackend(1024)
	sc := DefaultScales()
	xs := make([]*CipherTensor, 3)
	plains := make([]*tensor.Tensor, 3)
	for i := range xs {
		plains[i] = randTensor([]int{2, 3, 3}, 1, int64(80+i))
		xs[i] = EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, plains[i])
	}
	want := tensor.ConcatChannels(plains...)
	got := DecryptTensor(b, Concat(b, sc, ExecOptions{}, xs...), 1)[0]
	tensorsClose(t, "3-way concat", got, want, 1e-6)
}

func TestPolyEvalWithConstantTermKeepsZeroInvariant(t *testing.T) {
	// p(x) = x^2 + 1: the constant must appear only at valid positions so
	// later kernels still see zeros elsewhere.
	b := hisa.NewRefBackend(256)
	sc := DefaultScales()
	in := randTensor([]int{1, 3, 3}, 1, 90)
	ct := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, in)
	out := PolyEval(b, ct, []float64{1, 0, 1}, sc, ExecOptions{})

	// Reference values.
	want := in.Clone()
	for i, v := range want.Data {
		want.Data[i] = v*v + 1
	}
	tensorsClose(t, "values", DecryptTensor(b, out, 1)[0], want, 1e-6)

	// Invariant: decode the raw ciphertext and check invalid slots ~ 0.
	raw := b.Decode(b.Decrypt(out.CTs[0]))
	valid := map[int]bool{}
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			valid[out.pos(0, y, x)] = true
		}
	}
	for i, v := range raw {
		if !valid[i] && math.Abs(v) > 1e-9 {
			t.Fatalf("invalid slot %d holds %g; zero invariant broken", i, v)
		}
	}
}

func TestZeroInvariantAfterEveryKernel(t *testing.T) {
	// The documented invariant: all slots outside valid positions stay zero
	// after every kernel (checked on the exact Ref backend).
	b := hisa.NewRefBackend(1024)
	sc := DefaultScales()
	in := randTensor([]int{2, 6, 6}, 1, 91)
	ct := EncryptTensor(b, Plan{Layout: LayoutCHW, Apron: 1}, sc, in)

	check := func(name string, x *CipherTensor) {
		t.Helper()
		for g := range x.CTs {
			raw := b.Decode(b.Decrypt(x.CTs[g]))
			valid := map[int]bool{}
			for ci := 0; ci < x.CPerCT; ci++ {
				if g*x.CPerCT+ci >= x.C {
					break
				}
				for y := 0; y < x.H; y++ {
					for xx := 0; xx < x.W; xx++ {
						valid[x.pos(ci, y, xx)] = true
					}
				}
			}
			for i, v := range raw {
				if !valid[i] && math.Abs(v) > 1e-9 {
					t.Fatalf("%s: ct %d slot %d holds %g", name, g, i, v)
				}
			}
		}
	}

	conv := Conv2D(b, ct, randTensor([]int{3, 2, 3, 3}, 0.5, 92), randTensor([]int{3}, 0.2, 93), 1, 1, sc, ExecOptions{})
	check("conv", conv)
	act := Activation(b, conv, 0.25, 1, sc, ExecOptions{})
	check("activation", act)
	pool := AvgPool2D(b, act, 2, 2, sc, ExecOptions{})
	check("pool", pool)
	bn := BatchNorm(b, pool, randTensor([]int{3}, 1, 94), randTensor([]int{3}, 1, 95), sc, ExecOptions{})
	check("batchnorm", bn)
	gap := GlobalAvgPool2D(b, bn, sc, ExecOptions{})
	check("globalpool", gap)
}
