package core

import (
	"math"
	"testing"

	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
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
	// The counts are pinned: the packed Dense refreshes once per neuron group,
	// and a kernel edit that moves them must be a decision, not an accident.
	// TestBootstrapEndToEnd and chet-bench -exp bootstrap hold the runtime's
	// refresh count equal to these.
	if len(p.Placements) != 57 {
		t.Fatalf("NN-6 at window 3 places %d bootstraps, want 57", len(p.Placements))
	}
	if c20, err := Compile(nn.NN20().Circuit, bootOptions(4)); err != nil {
		t.Fatal(err)
	} else if n := len(c20.BootPlan.Placements); n != 170 {
		t.Fatalf("NN-20 at window 4 places %d bootstraps, want 170", n)
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
// real RNS backend under the Refresher, matches the Ref-backend lockstep
// within the bootstrap epsilon, and performs exactly as many bootstraps as
// the compiler placed — with and without a constant store — with no key
// switch above its key's planned level.
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

	// Plaintext-tracking reference over the same circuit.
	ref := hisa.NewRefBackend(1 << (comp.Best.LogN - 1))
	refEnc := htc.EncryptTensor(ref, comp.Plan(), comp.Options.Scales, img)
	refOut := htc.Execute(ref, m.Circuit, refEnc, comp.Best.Policy, comp.Options.Scales, htc.ExecOptions{})
	want := htc.DecryptTensor(ref, refOut, 1)[0]

	raw, err := BuildBackend(comp, ring.NewTestPRNG(0xDEE9))
	if err != nil {
		t.Fatal(err)
	}
	backend, err := BootBackend(comp, raw)
	if err != nil {
		t.Fatal(err)
	}
	rf := backend.(*hisa.Refresher)

	enc := htc.EncryptTensor(backend, comp.Plan(), comp.Options.Scales, img)
	out := htc.Execute(backend, m.Circuit, enc, comp.Best.Policy, comp.Options.Scales, htc.ExecOptions{})
	got := htc.DecryptTensor(backend, out, 1)[0]

	if rf.Bootstraps() != len(comp.BootPlan.Placements) {
		t.Fatalf("runtime performed %d bootstraps, compiler placed %d",
			rf.Bootstraps(), len(comp.BootPlan.Placements))
	}
	if rf.Bootstraps() == 0 {
		t.Fatal("deep MLP ran without bootstrapping")
	}
	if n := raw.(*hisa.RNSBackend).KeyLevelMisses(); n != 0 {
		t.Fatalf("%d key switches above their key's planned level", n)
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 5e-2 {
			t.Fatalf("output %d: |%g - %g| = %g exceeds bootstrap epsilon", i, got.Data[i], want.Data[i], d)
		}
	}

	// Through a constant store, whose plaintexts sit at the fresh level
	// because the Refresher may swap a refreshed operand in: the run raises
	// no level panic, refreshes as often and computes the same bits.
	before := rf.Bootstraps()
	stored := htc.DecryptTensor(backend, htc.Execute(backend, m.Circuit, enc, comp.Best.Policy,
		comp.Options.Scales, htc.ExecOptions{Constants: htc.NewConstants()}), 1)[0]

	if n := rf.Bootstraps() - before; n != len(comp.BootPlan.Placements) {
		t.Fatalf("runtime performed %d bootstraps through the store, compiler placed %d",
			n, len(comp.BootPlan.Placements))
	}
	for i := range got.Data {
		if math.Float64bits(stored.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("output %d: %g through the store, %g without", i, stored.Data[i], got.Data[i])
		}
	}
}
