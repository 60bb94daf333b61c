package chet

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/htc"
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

// TestLiteralSessionUsesCompiledPlan: a Session built as a struct literal
// (no NewSession) encrypts under the compiled plan — the geometry
// NewSession's encryption has — and its Run on the CKKS mock matches the
// plaintext circuit as closely as the quick-start flow does.
func TestLiteralSessionUsesCompiledPlan(t *testing.T) {
	model, err := Model("LeNet-tiny")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(model.Circuit, Options{Scheme: SchemeCKKS})
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewSession(compiled, ring.NewTestPRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	literal := &Session{Compiled: compiled, Backend: session.Backend}
	img := SyntheticImage(model.InputShape, 9)
	want, got := *session.Encrypt(img), *literal.Encrypt(img)
	want.CTs, got.CTs = nil, nil
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("literal session encrypts as %+v, NewSession as %+v", got, want)
	}
	plain := model.Circuit.Evaluate(img)
	out := literal.Run(img)
	if out.Size() != plain.Size() {
		t.Fatalf("output size %d want %d", out.Size(), plain.Size())
	}
	for i := range plain.Data {
		if e := math.Abs(out.Data[i] - plain.Data[i]); e > 0.05 {
			t.Fatalf("output %d: got %g want %g", i, out.Data[i], plain.Data[i])
		}
	}
}

// TestSessionEncodesConstantsOnce: a Session's first Infer encodes the
// program's weights, masks and biases (its constant table); every later
// Infer finds them encoded and issues no encode at all, and computes the
// same bits. Checked on a CHW and an HW program and on a batched one.
func TestSessionEncodesConstantsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	for _, tc := range []struct {
		model  string
		policy LayoutPolicy
		batch  int
	}{
		{"LeNet-tiny", htc.PolicyCHW, 0},
		{"LeNet-5-small", htc.PolicyHW, 0},
		{"LeNet-tiny", htc.PolicyCHW, 4},
	} {
		model, err := Model(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := Compile(model.Circuit, Options{
			Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13,
			Policies: []LayoutPolicy{tc.policy}, Batch: tc.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		session, err := NewSession(compiled, ring.NewTestPRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		meter := hisa.NewMeter(session.Backend, nil)
		session.Backend = meter
		session.Workers = 2
		var enc *CipherTensor
		if tc.batch > 1 {
			var imgs []*Tensor
			for i := 0; i < tc.batch; i++ {
				imgs = append(imgs, SyntheticImage(model.InputShape, uint64(i)))
			}
			enc = session.EncryptBatch(imgs)
		} else {
			enc = session.Encrypt(SyntheticImage(model.InputShape, 1))
		}
		name := fmt.Sprintf("%s/%v/batch %d", tc.model, tc.policy, tc.batch)
		var encodes [2]int
		var outs [2]*Tensor
		for i := range encodes {
			before := meter.Counts()[hisa.OpEncode]
			out := session.Infer(enc)
			encodes[i] = meter.Counts()[hisa.OpEncode] - before
			outs[i] = session.Decrypt(out)
		}
		if encodes[0] == 0 || encodes[1] != 0 {
			t.Fatalf("%s: Infer encoded %d then %d constants, want some then none", name, encodes[0], encodes[1])
		}
		for i := range outs[0].Data {
			if math.Float64bits(outs[0].Data[i]) != math.Float64bits(outs[1].Data[i]) {
				t.Fatalf("%s: output %d: %v then %v", name, i, outs[0].Data[i], outs[1].Data[i])
			}
		}
	}
}

// TestPlannedKeysMatchFullKeys: keys cut at the compiler's planned levels
// compute exactly what full-chain keys compute. A LeNet-tiny session at
// 128-bit parameters with the planned keys and one from the same seed whose
// plan has every level raised to the top draw the same key seeds and the
// same encryption noise, so their outputs must agree bit for bit. The plan
// is also tight for the relinearization key: it sits at the highest level
// any relinearization of the run switches at. Both hold at the default
// (prime-aligned) scales, where act1 relinearizes below the top level (the
// test fails if the relinearization key moves to the top there), and at
// 2^40/2^35 scales, where conv1 does not rescale and act1 relinearizes at
// the top.
func TestPlannedKeysMatchFullKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution at 128-bit parameters is slow; run without -short")
	}
	model, err := Model("LeNet-tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scales{{}, {Pc: math.Exp2(40), Pw: math.Exp2(35), Pu: math.Exp2(35), Pm: math.Exp2(35)}} {
		planned, err := Compile(model.Circuit, Options{Scheme: SchemeRNS, Scales: sc})
		if err != nil {
			t.Fatal(err)
		}
		ps := planned.Options.Scales
		name := fmt.Sprintf("scales 2^%v", []float64{math.Log2(ps.Pc), math.Log2(ps.Pw), math.Log2(ps.Pu), math.Log2(ps.Pm)})
		top := len(planned.Best.RNSChainBits) - 1
		raised := *planned.Keys
		raised.Rotations = map[int]int{}
		below := 0
		for k, level := range planned.Keys.Rotations {
			raised.Rotations[k] = top
			if level < top {
				below++
			}
		}
		raised.Relin = top
		if below == 0 {
			t.Fatalf("%s: nothing to compare: all %d rotation keys at the top level %d", name, len(planned.Keys.Rotations), top)
		}
		// At the default scales the comparison must also exercise a cut
		// relinearization key; at 2^40/2^35 act1 relinearizes at the top.
		if sc == (Scales{}) && planned.Keys.Relin == top {
			t.Fatalf("%s: nothing to compare: the relinearization key sits at the top level %d", name, top)
		}
		full := *planned
		full.Keys = &raised

		img := SyntheticImage(model.InputShape, 3)
		var outs [2]*Tensor
		var mu sync.Mutex
		relinAt := -1 // the highest level a relinearization switched at
		record := func(c hisa.Ciphertext) {
			mu.Lock()
			relinAt = max(relinAt, c.(*ckks.Ciphertext).Level())
			mu.Unlock()
		}
		for i, comp := range []*Compiled{planned, &full} {
			session, err := NewSession(comp, ring.NewTestPRNG(25))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				// RelinearizeRescale reports its rescale with the degree-2
				// input, then a relin marker whose output sits lower;
				// Relinearize reports its input; a Mul's relin marker carries
				// the product at its level. A sum of rotations' rescale has
				// no input: its division rides in the sum's ModDown.
				ip := hisa.NewInterposer(session.Backend, "relin", nil, func(op *hisa.Op) {
					switch {
					case op.Kind == hisa.OpRescale && op.In != nil && op.In.(*ckks.Ciphertext).Degree() == 2:
						record(op.In)
					case op.Kind == hisa.OpRelin && op.In != nil:
						record(op.In)
					case op.Kind == hisa.OpRelin:
						record(op.Out)
					}
				})
				session.Backend = &ip
			}
			session.Workers = 2
			outs[i] = session.Run(img)
		}
		for i := range outs[0].Data {
			if math.Float64bits(outs[0].Data[i]) != math.Float64bits(outs[1].Data[i]) {
				t.Fatalf("%s: output %d: planned keys give %v, full-chain keys %v", name, i, outs[0].Data[i], outs[1].Data[i])
			}
		}
		t.Logf("%s: relinearization key at level %d of %d", name, relinAt, top)
		if planned.Keys.Relin != relinAt {
			t.Errorf("%s: relinearization key planned at level %d, relinearizations run at most at level %d (top %d)",
				name, planned.Keys.Relin, relinAt, top)
		}
	}
}
