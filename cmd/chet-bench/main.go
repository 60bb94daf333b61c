// chet-bench regenerates the tables and figures of the paper's evaluation
// (Section 6). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Usage:
//
//	chet-bench -exp all            # every experiment on the small model set
//	chet-bench -exp table4 -full   # all five evaluation networks
//	chet-bench -exp fig6           # measured real-crypto latency vs cost model
//
// Everything beyond the paper (serving, fleet, tracing, ring kernels) is
// measured by the benchmark/ module (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"chet/internal/bench"
	"chet/internal/core"
	"chet/internal/nn"
)

// experiment is one named evaluation reproduction.
type experiment struct {
	name string
	run  func(w io.Writer) error
}

// benchConfig parameterizes the experiment set so tests can substitute
// tractable sizes for the defaults.
type benchConfig struct {
	// models drives the analysis-only experiments.
	models []*nn.Model
	// fig6Models and fig6LogN size the Figure 6 real-crypto measurements.
	fig6Models  []*nn.Model
	fig6LogN    int
	table1Sizes [][2]int
	scaleSearch bool
	// bootLayers/bootLogN/bootWindow size the deep-network bootstrapping
	// experiment; bootErrBudget is the output-precision ceiling it asserts.
	bootLayers    int
	bootLogN      int
	bootWindow    int
	bootErrBudget float64
}

func defaultConfig() benchConfig {
	small, _ := nn.ByName("LeNet-5-small")
	return benchConfig{
		models:      bench.SmallModels(),
		fig6Models:  []*nn.Model{nn.LeNetTiny(), small},
		fig6LogN:    12,
		table1Sizes: [][2]int{{11, 2}, {11, 4}, {11, 8}, {12, 4}, {13, 4}},

		bootLayers:    6,
		bootLogN:      9,
		bootWindow:    3,
		bootErrBudget: 5e-2,
	}
}

// experiments returns every experiment in display order.
func experiments(cfg benchConfig) []experiment {
	return []experiment{
		{"table1", func(w io.Writer) error {
			rows, err := bench.Table1(cfg.table1Sizes)
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.RenderTable1(rows))
			fmt.Fprintln(w, "expected shape: add/sMul/pMul scale ~N*r; ctMul/rot scale ~N*logN*r^2")
			return nil
		}},
		{"table3", func(w io.Writer) error {
			fmt.Fprint(w, bench.RenderTable3(bench.Table3(cfg.models, true)))
			fmt.Fprintln(w, "fidelity = max |encrypted - plaintext| output deviation (substitutes for accuracy; see DESIGN.md)")
			return nil
		}},
		{"table4", func(w io.Writer) error {
			rows, err := bench.Table4(cfg.models, bench.Table4Options{
				UseScaleSearch: cfg.scaleSearch,
				SearchStep:     8,
				Tolerance:      0.1,
			})
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.RenderTable4(rows))
			return nil
		}},
		{"table5", func(w io.Writer) error {
			rows, err := bench.LayoutTable(cfg.models, core.SchemeRNS)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "CHET-SEAL (RNS-CKKS) estimated latency per data layout, seconds:")
			fmt.Fprint(w, bench.RenderLayoutTable(rows))
			return nil
		}},
		{"table6", func(w io.Writer) error {
			rows, err := bench.LayoutTable(cfg.models, core.SchemeCKKS)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "CHET-HEAAN (CKKS) estimated latency per data layout, seconds:")
			fmt.Fprint(w, bench.RenderLayoutTable(rows))
			return nil
		}},
		{"fig5", func(w io.Writer) error {
			rows, err := bench.Figure5(cfg.models)
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.RenderFigure5(rows))
			fmt.Fprintln(w, "expected shape: Manual-HEAAN > CHET-HEAAN > CHET-SEAL for every network")
			return nil
		}},
		{"fig6", func(w io.Writer) error {
			points, err := bench.Figure6(cfg.fig6Models, cfg.fig6LogN)
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.RenderFigure6(points))
			return nil
		}},
		{"fig7", func(w io.Writer) error {
			rows, err := bench.Figure7(cfg.models, []core.Scheme{core.SchemeRNS, core.SchemeCKKS})
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.RenderFigure7(rows))
			return nil
		}},
		{"bootstrap", func(w io.Writer) error {
			res, err := bench.BootstrapBench(cfg.bootLayers, cfg.bootLogN, cfg.bootWindow, cfg.bootErrBudget)
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.RenderBootstrap(res))
			fmt.Fprintln(w, "the compiler reserves the pipeline depth on the chain and refreshes exactly where its level model exhausts (see DESIGN.md)")
			if !res.PlacementParity {
				return fmt.Errorf("runtime performed %d bootstraps, compiler placed %d",
					res.RuntimeBootstraps, res.Placements)
			}
			if res.MaxErr > res.ErrBudget {
				return fmt.Errorf("post-bootstrap output error %.2e exceeds the %.0e budget",
					res.MaxErr, res.ErrBudget)
			}
			return nil
		}},
	}
}

// runExperiments executes the experiment named want ("all" runs every one)
// and writes the rendered results to w. Unknown names are an error.
func runExperiments(w io.Writer, want string, cfg benchConfig) error {
	want = strings.ToLower(want)
	matched := false
	for _, e := range experiments(cfg) {
		if want != "all" && want != e.name {
			continue
		}
		matched = true
		fmt.Fprintf(w, "=== %s ===\n", e.name)
		start := time.Now()
		if err := e.run(w); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", want)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all",
		"experiment: table1, table3, table4, table5, table6, fig5, fig6, fig7, bootstrap, or all")
	full := flag.Bool("full", false,
		"use all five evaluation networks (slower analysis sweeps; fig6 always uses the small set)")
	scaleSearch := flag.Bool("scalesearch", false,
		"run the profile-guided scale search for table4 (slow)")
	flag.Parse()

	cfg := defaultConfig()
	cfg.scaleSearch = *scaleSearch
	if *full {
		cfg.models = bench.EvalModels()
	}

	if err := runExperiments(os.Stdout, *exp, cfg); err != nil {
		log.Fatal(err)
	}
}
