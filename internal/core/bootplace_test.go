package core

import (
	"math"
	"testing"

	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// bootOptions compiles at a small insecure ring so real-lattice runs stay
// fast; window 3 forces several mid-circuit bootstraps on a deep MLP.
func bootOptions(window int) Options {
	return Options{
		Scheme:       SchemeRNS,
		SecurityBits: -1,
		MinLogN:      9,
		MaxLogN:      9,
		Policies:     []htc.LayoutPolicy{htc.PolicyCHW},
		Bootstrap:    &BootstrapOptions{Window: window},
	}
}

func TestBootstrapCompileValidation(t *testing.T) {
	m := nn.DeepMLP(2)
	opts := bootOptions(3)
	opts.Scheme = SchemeCKKS
	if _, err := Compile(m.Circuit, opts); err == nil {
		t.Fatal("bootstrap with CKKS scheme must fail")
	}
	opts = bootOptions(3)
	opts.Bootstrap.Floor = 5
	if _, err := Compile(m.Circuit, opts); err == nil {
		t.Fatal("window below floor must fail")
	}
}

// TestBootstrapPlacement: a circuit too deep for its window compiles with a
// bootstrap chain, places bootstraps at level-exhaustion points, and folds
// their cost into the estimate.
func TestBootstrapPlacement(t *testing.T) {
	m := nn.DeepMLP(6)
	comp, err := Compile(m.Circuit, bootOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if comp.BootPlan == nil {
		t.Fatal("no BootPlan on a bootstrap compilation")
	}
	p := comp.BootPlan
	if len(p.Placements) == 0 {
		t.Fatal("deep MLP with window 3 must place bootstraps")
	}
	// The counts are pinned: the packed Dense's products are one sum of
	// rotations, which refreshes each copy of the input once (not once per
	// neuron group), and a kernel edit that moves them must be a decision,
	// not an accident.
	// TestBootstrapEndToEnd and chet-bench -exp bootstrap hold the runtime's
	// refresh count equal to these.
	if len(p.Placements) != 6 {
		t.Fatalf("NN-6 at window 3 places %d bootstraps, want 6", len(p.Placements))
	}
	if c20, err := Compile(nn.NN20().Circuit, bootOptions(4)); err != nil {
		t.Fatal(err)
	} else if n := len(c20.BootPlan.Placements); n != 20 {
		t.Fatalf("NN-20 at window 4 places %d bootstraps, want 20", n)
	}
	if comp.Best.Bootstraps != len(p.Placements) {
		t.Fatalf("Best.Bootstraps = %d, plan has %d placements", comp.Best.Bootstraps, len(p.Placements))
	}
	if p.FreshLevel != 3 || p.Window != 3 {
		t.Fatalf("fresh level %d / window %d, want 3/3", p.FreshLevel, p.Window)
	}
	// The chain is the spec layout: q0, window+Depth-1 working primes, C2S.
	wantChain := 1 + p.Window + p.Depth
	if len(comp.Best.RNSChainBits) != wantChain {
		t.Fatalf("chain has %d primes, want %d", len(comp.Best.RNSChainBits), wantChain)
	}
	for i, pl := range p.Placements {
		if pl.Index != i {
			t.Fatalf("placement %d has index %d", i, pl.Index)
		}
		if pl.Node < 0 {
			t.Fatalf("placement %d not attributed to a node (%+v)", i, pl)
		}
		if pl.LevelBefore >= p.Floor {
			t.Fatalf("placement %d triggered at level %d >= floor %d", i, pl.LevelBefore, p.Floor)
		}
		if pl.LevelAfter != p.FreshLevel {
			t.Fatalf("placement %d lands at level %d, want %d", i, pl.LevelAfter, p.FreshLevel)
		}
		if pl.Cost <= 0 {
			t.Fatalf("placement %d has no cost estimate", i)
		}
		if pl.Name == "" || pl.Op == "" {
			t.Fatalf("placement %d missing attribution: %+v", i, pl)
		}
	}
	if p.EstCost <= 0 || comp.Best.EstimatedCost < p.EstCost {
		t.Fatalf("bootstrap cost %g not folded into estimate %g", p.EstCost, comp.Best.EstimatedCost)
	}
	// The bootstrap rotation amounts must be in the provisioned key set.
	keys := map[int]bool{}
	for _, r := range comp.Best.Rotations {
		keys[r] = true
	}
	for _, amt := range p.Spec.RotationAmounts() {
		if !keys[amt] {
			t.Fatalf("bootstrap rotation %d missing from key set", amt)
		}
	}
	// Deterministic: recompiling reproduces the fingerprint.
	comp2, err := Compile(m.Circuit, bootOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if comp.FingerprintHex() != comp2.FingerprintHex() {
		t.Fatal("bootstrap compilation not deterministic")
	}
	if c3, err := Compile(m.Circuit, bootOptions(4)); err != nil {
		t.Fatal(err)
	} else if c3.FingerprintHex() == comp.FingerprintHex() {
		t.Fatal("window change must flip the fingerprint")
	}
}

// TestBootstrapEndToEnd is the subsystem's closing property: a deep MLP
// compiles with compiler-placed bootstraps, runs end-to-end encrypted on the
// real RNS backend, matches the Ref-backend lockstep within the bootstrap
// epsilon, and performs exactly as many bootstraps as the compiler placed —
// the Meter's bootstrap tally equals len(BootPlan.Placements), also on a
// second run with the program's constants already encoded, which computes
// the same bits — with no key switch above its key's planned level.
func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-lattice bootstrap run")
	}
	m := nn.DeepMLP(6)
	comp, err := Compile(m.Circuit, bootOptions(3))
	if err != nil {
		t.Fatal(err)
	}

	img := nn.SyntheticImage(m.InputShape, 7)

	// Plaintext-tracking reference: the program replayed on Ref, whose
	// bootstrap is the identity.
	ref := hisa.NewRefBackend(1 << (comp.Best.LogN - 1))
	want := execute(comp, ref, []*tensor.Tensor{img}, 1)[0]

	raw, err := BuildBackend(comp, ring.NewTestPRNG(0xDEE9))
	if err != nil {
		t.Fatal(err)
	}
	backend := hisa.NewMeter(raw, nil)
	enc := htc.EncryptTensor(backend, comp.Plan(), comp.Options.Scales, img)
	var outs [2]*tensor.Tensor
	for run := range outs {
		before := backend.Counts()[hisa.OpBootstrap]
		outs[run] = comp.Decrypt(backend, comp.Execute(backend, enc, 2), 1)[0]
		if n := backend.Counts()[hisa.OpBootstrap] - before; n != len(comp.BootPlan.Placements) || n == 0 {
			t.Fatalf("run %d: the Meter counted %d bootstraps, the compiler placed %d", run, n, len(comp.BootPlan.Placements))
		}
	}
	if n := raw.(*hisa.RNSBackend).KeyLevelMisses(); n != 0 {
		t.Fatalf("%d key switches above their key's planned level", n)
	}
	got := outs[0]
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 5e-2 {
			t.Fatalf("output %d: |%g - %g| = %g exceeds bootstrap epsilon", i, got.Data[i], want.Data[i], d)
		}
		if math.Float64bits(outs[1].Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("output %d: %g on the second run, %g on the first", i, outs[1].Data[i], got.Data[i])
		}
	}
}
