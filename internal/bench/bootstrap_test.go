package bench

import "testing"

// TestBootstrapBenchSmoke runs the deep-network bootstrapping experiment at
// the smallest geometry that still forces mid-circuit refreshes and checks
// the result is fully populated, internally consistent, and passing.
func TestBootstrapBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-lattice bootstrap run")
	}
	res, err := BootstrapBench(6, 9, 3, 5e-2)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogN != 9 || res.Window != 3 || res.Layers != 6 {
		t.Fatalf("geometry: %+v", res)
	}
	if res.Placements == 0 {
		t.Fatal("no bootstraps placed")
	}
	if !res.PlacementParity {
		t.Fatalf("runtime %d bootstraps, compiler placed %d", res.RuntimeBootstraps, res.Placements)
	}
	for name, v := range map[string]float64{
		"bootstrap ms": res.BootstrapMS,
		"compile ms":   res.CompileMS,
		"run ms":       res.RunMS,
		"images/sec":   res.ImagesPerSec,
	} {
		if v <= 0 {
			t.Fatalf("%s not populated: %v", name, v)
		}
	}
	if res.AmortizedMS != res.RunMS/float64(res.Placements) {
		t.Fatalf("amortized refresh inconsistent: %+v", res)
	}
	if !res.Pass {
		t.Fatalf("experiment failed: max err %.2e, budget %.0e", res.MaxErr, res.ErrBudget)
	}
	if out := RenderBootstrap(res); out == "" {
		t.Fatal("empty render")
	}
}
