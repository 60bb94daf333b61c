package core

import (
	"math"
	"testing"

	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// runPlan executes a compilation's circuit on b, replaying the recorded scale
// plan when one exists (lazy mode) and falling back to the greedy protocol
// otherwise — the same dispatch the serving layer and benches use.
func runPlan(comp *Compiled, b hisa.Backend, img *tensor.Tensor) *tensor.Tensor {
	sc := comp.Options.Scales
	plan := htc.PlanFor(comp.Circuit, comp.Best.Policy)
	enc := htc.EncryptTensor(b, img, plan, sc)
	opts := htc.ExecOptions{}
	if comp.ScalePlan != nil {
		opts.Scale = htc.PlanPolicy{Plan: comp.ScalePlan}
	}
	out := htc.ExecuteOpts(b, comp.Circuit, enc, comp.Best.Policy, sc, opts)
	return htc.DecryptTensor(b, out)
}

// TestLazyMatchesGreedyOnRefAndSim is the cross-backend property the scale
// pass must preserve: deferring rescales is an optimization, never a change
// of program meaning. On the fixed-point CKKS world every rescale divides by
// a power of two — exact in floating point — so the plaintext Ref oracle
// must produce bit-identical outputs under the lazy plan and the greedy
// protocol; the noisy CKKS mock must agree within precision.
func TestLazyMatchesGreedyOnRefAndSim(t *testing.T) {
	c, img := testCNN()
	want := c.Evaluate(img)

	greedy, err := Compile(c, Options{Scheme: SchemeCKKS})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Compile(c, Options{Scheme: SchemeCKKS, ScaleMode: ScaleLazy})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.ScalePlan == nil {
		t.Fatal("lazy compilation recorded no scale plan")
	}
	// The fractional world is where laziness pays; if nothing was deferred
	// the property below is vacuously true and the pass is broken.
	if lazy.ScaleReport == nil || lazy.ScaleReport.Deferred == 0 {
		t.Fatalf("lazy CKKS compilation deferred nothing: %+v", lazy.ScaleReport)
	}

	// Plaintext oracle: bit-identical.
	slots := 1 << uint(greedy.Best.LogN-1)
	refGreedy := runPlan(greedy, hisa.NewRefBackend(slots), img)
	refLazy := runPlan(lazy, hisa.NewRefBackend(1<<uint(lazy.Best.LogN-1)), img)
	for i := range refGreedy.Data {
		if refGreedy.Data[i] != refLazy.Data[i] {
			t.Fatalf("Ref output %d: greedy %v != lazy %v (power-of-two rescales must be exact)",
				i, refGreedy.Data[i], refLazy.Data[i])
		}
	}

	// Noise model: both within precision of the plaintext result.
	for name, comp := range map[string]*Compiled{"greedy": greedy, "lazy": lazy} {
		b, err := BuildBackend(comp, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(comp, b, img)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
				t.Fatalf("sim %s output %d: got %g want %g", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestLazyEqualsGreedyWaterlineOnRNS pins the pass's RNS cost model: every
// reduce-site excess there is a whole ~40-bit prime, deferring one is
// peak-neutral but keeps an extra live limb through every downstream op, so
// the one-prime ceiling (maxDeferBits) must reject all of them — the lazy
// plan degenerates to the greedy waterline and executes the same number of
// rescale instructions.
func TestLazyEqualsGreedyWaterlineOnRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	c, img := testCNN()
	want := c.Evaluate(img)

	base := Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11}
	lazyOpts := base
	lazyOpts.ScaleMode = ScaleLazy

	greedy, err := Compile(c, base)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Compile(c, lazyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.ScaleReport == nil {
		t.Fatal("lazy compilation has no scale report")
	}
	if lazy.ScaleReport.Deferred != 0 {
		t.Fatalf("RNS lazy plan deferred %d whole-prime rescales; the one-prime ceiling should reject them all",
			lazy.ScaleReport.Deferred)
	}

	counts := map[string]int{}
	for name, comp := range map[string]*Compiled{"greedy": greedy, "lazy": lazy} {
		b, err := BuildBackend(comp, ring.NewTestPRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		m := hisa.NewMeter(b, nil)
		got := runPlan(comp, m, img)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
				t.Fatalf("rns %s output %d: got %g want %g", name, i, got.Data[i], want.Data[i])
			}
		}
		counts[name] = m.Counts()[hisa.OpRescale]
	}
	if counts["greedy"] != counts["lazy"] {
		t.Fatalf("rescale counts diverge: greedy %d, lazy %d", counts["greedy"], counts["lazy"])
	}
}
