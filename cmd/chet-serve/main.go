// chet-serve runs the server side of CHET's deployment model (Figure 3 of
// the paper) as a long-running service: it compiles the named network once,
// then accepts client sessions that upload public evaluation keys and
// stream encrypted-inference requests. The server never holds a secret key,
// an image, or a prediction.
//
// Usage:
//
//	chet-serve -model LeNet-tiny -insecure                  # demo ring, fast
//	chet-serve -model LeNet-5-small -addr :7002 -workers 8
//	chet-serve -model LeNet-tiny -insecure -max-sessions 16 -queue-depth 32
//
// Clients connect with serve.Dial (see examples/clientserver). SIGINT or
// SIGTERM drains in-flight requests, then prints a metrics report.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"chet"
	"chet/internal/hisa"
	"chet/internal/serve"
)

// serveConfig holds everything main parses from flags, so the server loop
// is drivable from tests.
type serveConfig struct {
	addr           string
	model          string
	insecure       bool
	workers        int
	parallel       int
	maxSessions    int
	queueDepth     int
	requestTimeout time.Duration
	// batch is the compiled batch capacity: the images a client may pack
	// into one request (0 auto-selects).
	batch int
	// metricsAddr, when non-empty, serves /metrics (Prometheus text) and
	// /debug/pprof/* on a second listener.
	metricsAddr string
	// trace wraps each session's backend in a telemetry tracer: per-op
	// duration series on /metrics and trace-ID-correlated dispatch logs.
	trace bool
	// processLabel names this worker in merged cross-process traces; empty
	// lets trace collectors label it by address.
	processLabel string
	// logStructured lowers the log level to Debug, adding a record per
	// request (dispatch, completion, keyed by trace_id).
	logStructured bool
}

// buildServer compiles the model and constructs the engine.
func buildServer(w io.Writer, cfg serveConfig) (*serve.Server, *chet.Compiled, error) {
	m, err := chet.Model(cfg.model)
	if err != nil {
		return nil, nil, err
	}
	// Serving is RNS-CKKS only: the HEAAN mock has no transferable keys.
	opts := chet.Options{Scheme: chet.SchemeRNS}
	if cfg.insecure {
		opts.SecurityBits = -1
		opts.MinLogN = 11
		opts.MaxLogN = 13
	}
	if cfg.batch == 0 {
		// Auto-size: the largest power-of-two batch (up to 16) that fits the
		// unbatched ring, so batching never costs parameter growth.
		b, err := chet.SelectBatchCapacity(m.Circuit, opts, 16)
		if err != nil {
			return nil, nil, err
		}
		cfg.batch = b
		fmt.Fprintf(w, "chet-serve: auto-selected batch capacity %d\n", b)
	}
	opts.Batch = cfg.batch
	start := time.Now()
	comp, err := chet.Compile(m.Circuit, opts)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "chet-serve: compiled %s in %v (N=2^%d, %d rotation keys per session, batch capacity %d)\n",
		m.Name, time.Since(start).Round(time.Millisecond), comp.Best.LogN, len(comp.Best.Rotations), comp.Best.Batch)
	level := slog.LevelInfo
	if cfg.logStructured {
		level = slog.LevelDebug
	}
	s, err := serve.New(serve.Config{
		Compiled:       comp,
		MaxSessions:    cfg.maxSessions,
		QueueDepth:     cfg.queueDepth,
		RequestTimeout: cfg.requestTimeout,
		Workers:        cfg.workers,
		Parallel:       cfg.parallel,
		Trace:          cfg.trace,
		ProcessLabel:   cfg.processLabel,
		Logger:         slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})),
	})
	if err != nil {
		return nil, nil, err
	}
	return s, comp, nil
}

// run starts the server and blocks until a stop signal, then drains and
// reports metrics. onReady, when non-nil, receives the bound inference
// address and the bound observability address (nil unless -metrics-addr).
func run(w io.Writer, cfg serveConfig, stop <-chan os.Signal, onReady func(listen, metrics net.Addr)) error {
	s, comp, err := buildServer(w, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "chet-serve: circuit fingerprint %s\n", comp.FingerprintHex()[:16])

	var metricsAddr net.Addr
	if cfg.metricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsAddr = mln.Addr()
		hs := &http.Server{Handler: s.ObservabilityMux()}
		go hs.Serve(mln)
		defer hs.Close()
		fmt.Fprintf(w, "chet-serve: observability on http://%s (/metrics, /debug/pprof/)\n", metricsAddr)
	}
	if onReady != nil {
		onReady(ln.Addr(), metricsAddr)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(ln) }()
	select {
	case sig := <-stop:
		fmt.Fprintf(w, "chet-serve: %v received; draining in-flight requests\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(w, "chet-serve: forced shutdown: %v\n", err)
		}
	case err := <-errCh:
		return err
	}
	reportMetrics(w, s.Metrics())
	return nil
}

func reportMetrics(w io.Writer, m serve.ServerMetrics) {
	fmt.Fprintf(w, "chet-serve: metrics\n")
	fmt.Fprintf(w, "  sessions: %d opened, %d evicted, %d active at shutdown\n",
		m.SessionsOpened, m.SessionsEvicted, m.SessionsActive)
	fmt.Fprintf(w, "  requests: %d admitted, %d completed, %d failed\n",
		m.Requests, m.Completed, m.Errors)
	fmt.Fprintf(w, "  rejected: %d queue-full, %d deadline, %d shutting-down\n",
		m.RejectedQueueFull, m.RejectedDeadline, m.RejectedShutdown)
	if m.Latency.Count > 0 {
		fmt.Fprintf(w, "  latency:  p50 %v, p90 %v, p99 %v\n",
			m.Latency.P50.Round(time.Millisecond), m.Latency.P90.Round(time.Millisecond),
			m.Latency.P99.Round(time.Millisecond))
		fmt.Fprintf(w, "  queue-wait: p50 %v, p90 %v, p99 %v\n",
			m.QueueWait.P50.Round(time.Millisecond), m.QueueWait.P90.Round(time.Millisecond),
			m.QueueWait.P99.Round(time.Millisecond))
		fmt.Fprintf(w, "  evaluation: %d executions, p50 %v, p90 %v, p99 %v\n",
			m.Evaluation.Count,
			m.Evaluation.P50.Round(time.Millisecond), m.Evaluation.P90.Round(time.Millisecond),
			m.Evaluation.P99.Round(time.Millisecond))
	}
	sizes := make([]int, 0, len(m.BatchSizes))
	for size := range m.BatchSizes {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	for _, size := range sizes {
		fmt.Fprintf(w, "  evaluations of %d image(s): %d\n", size, m.BatchSizes[size])
	}
	if m.Bootstraps > 0 || m.HeadroomKnown {
		fmt.Fprintf(w, "  budget:   %d bootstrap refreshes", m.Bootstraps)
		if m.HeadroomKnown {
			fmt.Fprintf(w, ", min headroom %d levels above the refresh floor", m.MinHeadroom)
		}
		fmt.Fprintln(w)
	}
	for _, sm := range m.Sessions {
		fmt.Fprintf(w, "  session %d: %d requests, %d errors, %d HISA ops (%d rotations, %d ct-ct muls)\n",
			sm.ID, sm.Requests, sm.Errors, sm.Ops.Total(), sm.Ops.Rotations(), sm.Ops[hisa.OpMul])
	}
}

func main() {
	log.SetFlags(0)
	cfg := serveConfig{}
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7002", "address to listen on")
	flag.StringVar(&cfg.model, "model", "LeNet-tiny", "network to serve")
	flag.BoolVar(&cfg.insecure, "insecure", false, "use a small demo ring without the security check")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size per inference, across kernel items and each instruction's limbs (default: one per CPU)")
	flag.IntVar(&cfg.parallel, "parallel", 1, "inferences evaluated concurrently")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 64, "session-registry cap (LRU eviction beyond it)")
	flag.IntVar(&cfg.queueDepth, "queue-depth", 64, "admission-queue depth (requests beyond it are rejected)")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 60*time.Second, "default per-request deadline")
	flag.IntVar(&cfg.batch, "batch", 1, "compiled batch capacity: images a client may pack into one request (1 unbatched, 0 auto-selects up to 16)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof/ on this address (empty disables)")
	flag.BoolVar(&cfg.trace, "trace", false, "trace session backends: per-op durations on /metrics, trace-ID dispatch logs")
	flag.StringVar(&cfg.processLabel, "process-label", "", "name for this worker in merged cross-process traces (empty: labeled by address)")
	flag.BoolVar(&cfg.logStructured, "log", false, "log at Debug: a trace_id-keyed record per request dispatch and completion")
	flag.Parse()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Stdout, cfg, stop, nil); err != nil {
		log.Fatal(err)
	}
}
