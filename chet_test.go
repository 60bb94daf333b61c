package chet

import (
	"math"
	"strings"
	"testing"

	"chet/internal/ring"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	model, err := Model("LeNet-5-small")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(model.Circuit, Options{Scheme: SchemeCKKS})
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewSession(compiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := SyntheticImage(model.InputShape, 7)
	want := model.Circuit.Evaluate(img)
	got := session.Run(img)
	if got.Size() != want.Size() {
		t.Fatalf("output size %d want %d", got.Size(), want.Size())
	}
	maxErr := 0.0
	for i := range want.Data {
		if e := math.Abs(got.Data[i] - want.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.05 {
		t.Fatalf("encrypted inference deviates by %g from plaintext", maxErr)
	}
	// The classification decision survives encryption.
	if got.ArgMax() != want.ArgMax() {
		t.Fatalf("encrypted argmax %d != plaintext argmax %d", got.ArgMax(), want.ArgMax())
	}
}

func TestPublicAPIBuildCustomCircuit(t *testing.T) {
	b := NewCircuit("custom")
	x := b.Input(1, 6, 6)
	filters := NewTensor(2, 1, 3, 3)
	for i := range filters.Data {
		filters.Data[i] = 0.1
	}
	x = b.Conv2D(x, filters, nil, 1, 0, "conv")
	x = b.Activation(x, 0.25, 1, "act")
	c := b.Build(x)

	compiled, err := Compile(c, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Best.LogN == 0 {
		t.Fatal("no parameters selected")
	}
	desc := Describe(compiled)
	for _, needle := range []string{"custom", "RNS", "rotation keys", "best layout policy"} {
		if !strings.Contains(desc, needle) {
			t.Fatalf("Describe output missing %q:\n%s", needle, desc)
		}
	}
}

func TestPublicAPIRealCryptoTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	model, err := Model("LeNet-tiny")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(model.Circuit, Options{
		Scheme:       SchemeRNS,
		SecurityBits: -1, // small demo ring
		MinLogN:      11,
		MaxLogN:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewSession(compiled, ring.NewTestPRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	img := SyntheticImage(model.InputShape, 9)
	want := model.Circuit.Evaluate(img)
	got := session.Run(img)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("output %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestPublicAPIResidualMLP: two Dense outputs of one size leave the packed
// kernel on different slot grids; Compile and Run must add them all the same,
// on every scheme. Decrypt reshapes the prediction only: a tensor of another
// size keeps the shape it was decrypted in.
func TestPublicAPIResidualMLP(t *testing.T) {
	b := NewCircuit("residual-mlp")
	x := b.Input(1, 4, 4)
	weights := func(out, in int, seed float64) *Tensor {
		w := NewTensor(out, in)
		for i := range w.Data {
			w.Data[i] = math.Sin(seed+float64(i)) / 4
		}
		return w
	}
	d1 := b.Dense(x, weights(8, 16, 1), nil, "d1")
	d2 := b.Dense(d1, weights(8, 8, 2), nil, "d2")
	c := b.Build(b.Add(d1, d2, "add"))
	img := SyntheticImage([]int{1, 4, 4}, 5)
	want := c.Evaluate(img)

	for _, opts := range []Options{
		{Scheme: SchemeCKKS},
		{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 10, MaxLogN: 11},
	} {
		compiled, err := Compile(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		session, err := NewSession(compiled, ring.NewTestPRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		got := session.Run(img)
		if len(got.Shape) != 1 || got.Shape[0] != 8 {
			t.Fatalf("%v: prediction shape %v, want [8]", opts.Scheme, got.Shape)
		}
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
				t.Fatalf("%v: output %d: got %g want %g", opts.Scheme, i, got.Data[i], want.Data[i])
			}
		}
		if back := session.Decrypt(session.Encrypt(img)); len(back.Shape) != 3 || back.Size() != 16 {
			t.Fatalf("%v: a decrypted input came back as %v, want its own 1x4x4", opts.Scheme, back.Shape)
		}
	}
}
