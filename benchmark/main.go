// The benchmark of the whole stack: four workloads (compile-zoo, secure-tiny,
// lenet5-small, fleet-batched), end-to-end metrics from untraced runs and
// per-layer metrics from traced ones, every output checked against the
// plaintext interpreter. See README.md for what is measured and why.
//
//	bash benchmark/run.sh --workload lenet5-small --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --all --runs 3 --out a.json
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runDeadline ends a run that hangs well before the caller's 180 s limit, so
// that child processes are stopped by this program and not orphaned by a
// kill from outside.
const runDeadline = 170 * time.Second

// resultFile is what every invocation writes: where and when it ran, and
// what each run measured.
type resultFile struct {
	Stamp stamp        `json:"stamp"`
	Runs  []*runResult `json:"runs"`
}

// stamp identifies the code and the machine behind a result file.
type stamp struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
}

func newStamp(seed uint64) stamp {
	s := stamp{
		Commit:     "unknown", // a checkout without git history has no commit to name
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		s.Dirty = err != nil || len(strings.TrimSpace(string(status))) > 0
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return s
}

func writeResultFile(path string, f *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printTable writes every metric a run measured, by name and unit.
func printTable(w *os.File, r *runResult) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s  seed %d  %s run  %d attempted, %d failed  (%.1fs wall)\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.WallS)
	for _, name := range r.Metrics.names() {
		d := metricByName[name]
		if !r.Trace && !d.EndToEnd {
			continue
		}
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (n=%d)\n", name, v.Value, v.Unit, v.Samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// binDir is where run.sh put the binaries: next to this one.
func binDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "."
	}
	return filepath.Dir(exe)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seedArg  = flag.Int64("seed", 1, "seed of every image and every PRNG")
		seconds  = flag.Float64("seconds", 12, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end run; 1: per-layer run")
		out      = flag.String("out", "", "result file to write (default .bench_build/results/<workload>-trace<t>-seed<n>.json)")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, each in a process of its own")
		runs     = flag.Int("runs", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: base, then candidate")
	)
	flag.Parse()
	seed := uint64(*seedArg)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files: base, then candidate")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *all:
		path := *out
		if path == "" {
			path = filepath.Join(".bench_build", "results", fmt.Sprintf("set-seed%d.json", seed))
		}
		err = runAll(ctx, seed, *seconds, *runs, path)
	case *workload != "":
		path := *out
		if path == "" {
			path = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-trace%d-seed%d.json", *workload, *trace, seed))
		}
		err = runOne(ctx, runConfig{
			Workload: *workload, Seed: seed, Seconds: *seconds, Trace: *trace != 0,
			BinDir: binDir(), Log: os.Stderr,
		}, path)
	default:
		err = errors.New("give -workload <name>, -all, or -compare a.json b.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload once, prints its table to standard error, writes
// the stamped result file and prints the result as one JSON object on the
// last line of standard output.
func runOne(ctx context.Context, cfg runConfig, path string) error {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	printTable(os.Stderr, res)
	if err := writeResultFile(path, &resultFile{Stamp: newStamp(cfg.Seed), Runs: []*runResult{res}}); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics.contract(!cfg.Trace),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs a full set: every workload `runs` times untraced and once
// traced, each run in a fresh process so that peak memory and warm caches of
// one do not leak into the next, and gathers the runs into one result file.
func runAll(ctx context.Context, seed uint64, seconds float64, runs int, path string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(exe), "set-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	set := &resultFile{Stamp: newStamp(seed)}
	start := time.Now()
	for _, w := range workloadNames {
		for i := 0; i <= runs; i++ {
			traced := i == runs
			runSeed := seed + uint64(i)
			if traced {
				runSeed = seed
			}
			part := filepath.Join(tmp, "run.json")
			traceArg := "0"
			if traced {
				traceArg = "1"
			}
			cmd := exec.CommandContext(ctx, exe, "-workload", w, "-seed", fmt.Sprint(runSeed),
				"-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-out", part)
			cmd.Stderr = os.Stderr // the run's table; its JSON line on stdout is dropped
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (seed %d, trace %s): %w", w, runSeed, traceArg, err)
			}
			f, err := readResultFile(part)
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, f.Runs...)
		}
	}
	fmt.Fprintf(os.Stderr, "full set: %d runs in %.0fs\n", len(set.Runs), time.Since(start).Seconds())
	if err := writeResultFile(path, set); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Println(path)
	return nil
}
