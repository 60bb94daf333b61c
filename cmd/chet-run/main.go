// chet-run performs end-to-end encrypted inference: it compiles a network,
// generates keys, encrypts a synthetic image, evaluates the optimized
// homomorphic tensor circuit, decrypts the prediction, and reports fidelity
// against unencrypted inference.
//
// Usage:
//
//	chet-run -model LeNet-tiny -scheme seal -insecure   # real lattice crypto, small ring
//	chet-run -model LeNet-5-small -scheme heaan         # CKKS mock, secure parameters
//	chet-run -model LeNet-tiny -scheme seal -insecure -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"chet"
	"chet/internal/ring"
	"chet/internal/telemetry"
)

// runConfig holds everything main parses from flags, so inference is
// drivable from tests.
type runConfig struct {
	model    string
	scheme   string
	seed     uint64
	images   int
	insecure bool
	workers  int
	// tracePath, when set, wraps the session backend in a telemetry.Tracer
	// and writes the recorded spans as Chrome trace_event JSON there.
	tracePath string
	// profile runs the per-layer precision profiler (a plaintext oracle in
	// lockstep) after inference and prints its report.
	profile bool
}

// runInference compiles, keys, and runs encrypted inference, writing the
// human-readable report to w.
func runInference(w io.Writer, cfg runConfig) error {
	m, err := chet.Model(cfg.model)
	if err != nil {
		return err
	}
	opts := chet.Options{}
	switch strings.ToLower(cfg.scheme) {
	case "seal", "rns", "rns-ckks":
		opts.Scheme = chet.SchemeRNS
	case "heaan", "ckks":
		opts.Scheme = chet.SchemeCKKS
	default:
		return fmt.Errorf("unknown scheme %q", cfg.scheme)
	}
	if cfg.insecure {
		opts.SecurityBits = -1
		opts.MinLogN = 11
		opts.MaxLogN = 13
	}

	start := time.Now()
	compiled, err := chet.Compile(m.Circuit, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compiled %s in %v\n", m.Name, time.Since(start).Round(time.Millisecond))
	fmt.Fprint(w, chet.Describe(compiled))

	start = time.Now()
	session, err := chet.NewSession(compiled, ring.NewTestPRNG(0xD15EA5E))
	if err != nil {
		return err
	}
	session.Workers = cfg.workers
	fmt.Fprintf(w, "key generation: %v (inference workers: %d)\n",
		time.Since(start).Round(time.Millisecond), cfg.workers)

	var tracer *telemetry.Tracer
	if cfg.tracePath != "" {
		tracer = telemetry.NewTracer(session.Backend, telemetry.Config{})
		session.Backend = tracer
	}

	var inferWall time.Duration
	for i := 0; i < cfg.images; i++ {
		img := chet.SyntheticImage(m.InputShape, cfg.seed+uint64(i))
		want := m.Circuit.Evaluate(img)

		start = time.Now()
		enc := session.Encrypt(img)
		encTime := time.Since(start)

		start = time.Now()
		out := session.Infer(enc)
		inferTime := time.Since(start)
		inferWall += inferTime

		got := session.Decrypt(out)
		maxErr := 0.0
		for j := range want.Data {
			if e := math.Abs(got.Data[j] - want.Data[j]); e > maxErr {
				maxErr = e
			}
		}
		agree := "AGREE"
		if got.ArgMax() != want.ArgMax() {
			agree = "DISAGREE"
		}
		fmt.Fprintf(w, "image %d: encrypt %v, inference %v, max |err| %.2e, argmax %s (class %d)\n",
			i, encTime.Round(time.Millisecond), inferTime.Round(time.Millisecond),
			maxErr, agree, got.ArgMax())
	}

	if tracer != nil {
		prof := tracer.Profile()
		fmt.Fprint(w, telemetry.RenderProfile(prof))
		if err := writeTrace(cfg.tracePath, tracer, inferWall, prof); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d spans (%d dropped) -> %s; kernel scopes cover %v of %v inference wall\n",
			tracer.SpanCount(), tracer.Dropped(), cfg.tracePath,
			prof.ScopeTotal.Round(time.Millisecond), inferWall.Round(time.Millisecond))
	}
	if cfg.profile {
		rows := telemetry.PrecisionProfile(session.Backend, compiled, chet.SyntheticImage(m.InputShape, cfg.seed))
		fmt.Fprint(w, telemetry.RenderPrecision(rows))
	}
	return nil
}

// writeTrace dumps the tracer's spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto). The wall/scope totals ride along in
// otherData so tooling can check span coverage without re-deriving it.
func writeTrace(path string, tracer *telemetry.Tracer, wall time.Duration, prof telemetry.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	other := map[string]any{
		"inferWallUS":  wall.Microseconds(),
		"scopeTotalUS": prof.ScopeTotal.Microseconds(),
	}
	if err := telemetry.WriteChromeTrace(f, tracer.Snapshot(), other); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	cfg := runConfig{}
	flag.StringVar(&cfg.model, "model", "LeNet-tiny", "network to run")
	flag.StringVar(&cfg.scheme, "scheme", "heaan", "target FHE scheme: seal (RNS-CKKS) or heaan (CKKS)")
	flag.Uint64Var(&cfg.seed, "seed", 7, "synthetic image seed")
	flag.IntVar(&cfg.images, "images", 1, "number of images to infer")
	flag.BoolVar(&cfg.insecure, "insecure", false, "use a small demo ring without the security check (fast real-crypto runs)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size for inference, across ready instructions and each instruction's limbs (default: one per CPU)")
	flag.StringVar(&cfg.tracePath, "trace", "", "write per-op spans as Chrome trace_event JSON to this file")
	flag.BoolVar(&cfg.profile, "profile", false, "run the per-layer precision profiler (plaintext oracle in lockstep) and print its report")
	flag.Parse()

	if err := runInference(os.Stdout, cfg); err != nil {
		log.Fatal(err)
	}
}
