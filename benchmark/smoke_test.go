package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// expects reports whether a traced run of workload must measure the
// BENCHMARK.json per-layer metric name; the others it reports as 0.
func expects(workload, name string) bool {
	fleet := workload == "fleet-batched"
	switch {
	case strings.HasPrefix(name, "serve."), strings.HasPrefix(name, "fleet."),
		strings.HasPrefix(name, "batch."), name == "eval_key_mib", name == "wire.response_kib":
		return fleet
	case strings.HasPrefix(name, "wire."):
		return workload != "compile-zoo"
	case strings.HasPrefix(name, "core.layout_"):
		return workload == "lenet5-small"
	}
	return true
}

// TestSmoke runs every workload at shrunken sizes, untraced and traced, and
// checks that each metric BENCHMARK.json names is there, finite and in its
// unit, and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs real cryptography")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/chet-serve", "./cmd/chet-router")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the served binaries: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute) // the race detector slows the cryptography several times
	defer cancel()
	for _, workload := range workloadNames {
		for _, trace := range []bool{false, true} {
			if workload == "fleet-batched" && !trace {
				continue // its untraced run is the first half of its traced run, which reports the same end-to-end metrics
			}
			res, err := runWorkload(ctx, runConfig{
				Workload: workload, Seed: 7, Seconds: 0.5, Trace: trace, Smoke: true, BinDir: bin,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", workload, trace, res.Failed, res.Attempted)
			}
			if res.Metrics["failed_share"].Value != 0 {
				t.Errorf("%s trace=%v: failed_share %v, want 0", workload, trace, res.Metrics["failed_share"].Value)
			}
			for name, v := range res.Metrics {
				d, ok := metricByName[name]
				if !ok {
					t.Errorf("%s: metric %q is not in the registry", workload, name)
				}
				if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Samples < 1 {
					t.Errorf("%s: %s = %+v, want a finite value in %s", workload, name, v, d.Unit)
				}
			}
			// An untraced run measures the end-to-end metrics, a traced run the
			// per-layer ones; fleet-batched's traced run measures both.
			for _, d := range metricDefs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !d.Contract:
				case d.EndToEnd && (!trace || workload == "fleet-batched"):
					if !ok || v.Value == 0 {
						t.Errorf("%s trace=%v: end-to-end metric %s is missing or 0", workload, trace, d.Name)
					}
				case !d.EndToEnd && trace && expects(workload, d.Name) && !ok:
					t.Errorf("%s: %s was not measured", workload, d.Name)
				}
			}
			if trace {
				if r := res.Metrics["htc.tile_ratio"].Value; r < 0.9 || r > 1.1 {
					t.Errorf("%s: kernel scopes cover %.3f of the serial inference, want 0.9 to 1.1", workload, r)
				}
				if res.Metrics["core.fingerprint_stable"].Value != 1 {
					t.Errorf("%s: two compilations disagree on the fingerprint", workload)
				}
			}
			// The line a driver reads carries exactly the BENCHMARK.json names.
			if got, want := len(res.Metrics.contract(!trace)), countContract(!trace); got != want {
				t.Errorf("%s trace=%v: result line has %d metrics, want %d", workload, trace, got, want)
			}
		}
	}
}

func countContract(endToEnd bool) int {
	n := 0
	for _, d := range metricDefs {
		if d.Contract && d.EndToEnd == endToEnd {
			n++
		}
	}
	return n
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and metrics.go in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, registry has %v", names, workloadNames)
	}
	var want []metricDef
	for _, m := range spec.EndToEnd {
		want = append(want, e2e(m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range spec.PerLayer {
		want = append(want, layer(m.Name, m.Unit, m.Better))
	}
	var have []metricDef
	for _, d := range metricDefs {
		if d.Contract {
			have = append(have, d)
		}
	}
	if len(want) != len(have) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the registry %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the registry %+v", i, want[i], have[i])
		}
	}
}

// TestQuartileSpread pins the quartiles to Python's statistics.quantiles.
func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	if got, want := quartileSpread([]float64{1, 3}), 3.0/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two values %v, want %v", got, want)
	}
}

// TestCompareVerdicts builds result files by hand and checks each verdict and
// the exit condition.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latencies []float64, failed int) string {
		f := &resultFile{Stamp: newStamp(1)}
		for _, l := range latencies {
			ms := metricSet{}
			ms.put("latency_s_p50", l, 5)
			ms.put("images_per_s", 1/l, 5)
			f.Runs = append(f.Runs, &runResult{Workload: "lenet5-small", Attempted: 5, Failed: failed, Metrics: ms})
		}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{1.00, 1.01, 0.99, 1.00}, 0)
	cases := []struct {
		name      string
		latencies []float64
		failed    int
		verdict   string
		wantErr   bool
	}{
		{"same", []float64{1.02, 1.03, 1.01, 1.02}, 0, "same", false},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30}, 0, "worse", true},
		{"noisy", []float64{0.70, 1.40, 0.80, 1.30}, 0, "unresolved", false},
		{"failing", []float64{1.00, 1.01, 0.99, 1.00}, 1, "same", true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareFiles(&out, base, write(c.name+".json", c.latencies, c.failed))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want error %v\n%s", c.name, err, c.wantErr, out.String())
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "latency_s_p50") {
				row = line
			}
		}
		if !strings.Contains(row, c.verdict) || !strings.Contains(row, "of base") {
			t.Errorf("%s: latency row %q, want verdict %q and a ratio with its base", c.name, row, c.verdict)
		}
	}
}
