package main

import (
	"strings"
	"testing"

	"chet/internal/nn"
)

// tinyConfig shrinks every experiment to its smallest meaningful instance
// so the whole dispatch table can be smoke-tested.
func tinyConfig() benchConfig {
	return benchConfig{
		models:      []*nn.Model{nn.LeNetTiny()},
		fig6Models:  []*nn.Model{nn.LeNetTiny()},
		fig6LogN:    11,
		table1Sizes: [][2]int{{11, 2}},

		bootLayers:    4,
		bootLogN:      9,
		bootWindow:    3,
		bootErrBudget: 5e-2,
	}
}

// TestRunExperimentsSmoke drives every -exp name through the real dispatch
// and requires non-empty rendered output. It is the only test that runs
// BootstrapBench, whose placement-parity and precision gates fail the
// bootstrap case.
func TestRunExperimentsSmoke(t *testing.T) {
	cfg := tinyConfig()
	slow := map[string]bool{"table1": true, "fig6": true, "bootstrap": true}
	for _, e := range experiments(cfg) {
		t.Run(e.name, func(t *testing.T) {
			if testing.Short() && slow[e.name] {
				t.Skip("real-crypto experiment; run without -short")
			}
			var sb strings.Builder
			if err := runExperiments(&sb, e.name, cfg); err != nil {
				t.Fatalf("experiment %s failed: %v", e.name, err)
			}
			out := sb.String()
			if !strings.Contains(out, "=== "+e.name+" ===") {
				t.Fatalf("experiment %s: missing header in output:\n%s", e.name, out)
			}
			// The body must contain more than header and trailer.
			body := out[strings.Index(out, "===\n")+4:]
			if len(strings.TrimSpace(strings.SplitN(body, "(", 2)[0])) == 0 {
				t.Fatalf("experiment %s produced no rows:\n%s", e.name, out)
			}
		})
	}
}

// TestRunExperimentsUnknownName ensures a typo'd -exp fails loudly instead
// of silently running nothing.
func TestRunExperimentsUnknownName(t *testing.T) {
	var sb strings.Builder
	if err := runExperiments(&sb, "tabel3", tinyConfig()); err == nil {
		t.Fatal("expected an error for an unknown experiment name")
	}
}
