// chet-router fronts a fleet of chet-serve workers with one client-facing
// address. It speaks the ordinary wire protocol on both sides: clients
// connect to it exactly as they would to a single worker, and the router
// places each session on a worker via a consistent-hash ring (sessions are
// sticky — their evaluation keys live on the worker that admitted them).
// Worker failure is healed in place: the dead worker leaves the ring and
// affected sessions have their keys replayed to a survivor, so clients see
// a retried request, never an error.
//
// Usage:
//
//	chet-serve  -model LeNet-tiny -insecure -addr 127.0.0.1:7101 &
//	chet-serve  -model LeNet-tiny -insecure -addr 127.0.0.1:7102 &
//	chet-router -workers 127.0.0.1:7101,127.0.0.1:7102 -addr :7100
//
// Clients then serve.Dial the router's address. SIGINT or SIGTERM drains
// in-flight relays, then prints a fleet report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chet/internal/fleet"
)

// routerConfig holds everything main parses from flags, so the router loop
// is drivable from tests.
type routerConfig struct {
	addr          string
	workers       string // comma-separated chet-serve addresses
	replicas      int
	maxSessions   int
	probeInterval time.Duration
	probeTimeout  time.Duration
	probeFailures int
	relayAttempts int
	metricsAddr   string
	// logStructured lowers the log level to Debug, adding a record per
	// relayed request (keyed by trace_id).
	logStructured bool
}

func buildRouter(w io.Writer, cfg routerConfig) (*fleet.Router, error) {
	var workers []string
	for _, a := range strings.Split(cfg.workers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workers = append(workers, a)
		}
	}
	if len(workers) == 0 {
		return nil, errors.New("chet-router: -workers requires at least one address")
	}
	level := slog.LevelInfo
	if cfg.logStructured {
		level = slog.LevelDebug
	}
	return fleet.New(fleet.Config{
		Workers:       workers,
		Replicas:      cfg.replicas,
		MaxSessions:   cfg.maxSessions,
		ProbeInterval: cfg.probeInterval,
		ProbeTimeout:  cfg.probeTimeout,
		ProbeFailures: cfg.probeFailures,
		RelayAttempts: cfg.relayAttempts,
		Logger:        slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})),
	})
}

// run starts the router and blocks until a stop signal, then drains and
// reports metrics. onReady, when non-nil, receives the bound client-facing
// address and the bound observability address (nil unless -metrics-addr).
func run(w io.Writer, cfg routerConfig, stop <-chan os.Signal, onReady func(listen, metrics net.Addr)) error {
	r, err := buildRouter(w, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}

	var metricsAddr net.Addr
	if cfg.metricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsAddr = mln.Addr()
		hs := &http.Server{Handler: r.ObservabilityMux()}
		go hs.Serve(mln)
		defer hs.Close()
		fmt.Fprintf(w, "chet-router: observability on http://%s (/metrics, /debug/pprof/)\n", metricsAddr)
	}
	if onReady != nil {
		onReady(ln.Addr(), metricsAddr)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Serve(ln) }()
	select {
	case sig := <-stop:
		fmt.Fprintf(w, "chet-router: %v received; draining in-flight relays\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			fmt.Fprintf(w, "chet-router: forced shutdown: %v\n", err)
		}
	case err := <-errCh:
		return err
	}
	reportMetrics(w, r.Metrics())
	return nil
}

func reportMetrics(w io.Writer, m fleet.RouterMetrics) {
	fmt.Fprintf(w, "chet-router: metrics\n")
	fmt.Fprintf(w, "  sessions: %d opened, %d evicted, %d active at shutdown\n",
		m.SessionsOpened, m.SessionsEvicted, m.SessionsActive)
	fmt.Fprintf(w, "  relays:   %d total, %d failovers, %d handoffs, %d unknown-session recoveries\n",
		m.Relays, m.Failovers, m.Handoffs, m.UnknownSessions)
	fmt.Fprintf(w, "  ring:     %d live workers, %d rebalances, %d probe failures\n",
		m.LiveWorkers, m.Rebalances, m.ProbeFailures)
	fmt.Fprintf(w, "  registry: %d models\n", m.RegistryModels)
	for _, wk := range m.Workers {
		state := "up"
		if !wk.Up {
			state = "down"
		}
		if wk.Draining {
			state += ", draining"
		}
		budget := ""
		if wk.Bootstraps > 0 || wk.HeadroomKnown {
			budget = fmt.Sprintf(", %d bootstraps", wk.Bootstraps)
			if wk.HeadroomKnown {
				budget += fmt.Sprintf(" (min headroom %d levels)", wk.MinHeadroom)
			}
		}
		fmt.Fprintf(w, "  worker %s (%s): %d relayed, %d handoffs, %d in flight%s\n",
			wk.Addr, state, wk.Relayed, wk.Handoffs, wk.Inflight, budget)
	}
}

func main() {
	log.SetFlags(0)
	cfg := routerConfig{}
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7100", "client-facing address to listen on")
	flag.StringVar(&cfg.workers, "workers", "", "comma-separated chet-serve worker addresses (required)")
	flag.IntVar(&cfg.replicas, "replicas", fleet.DefaultReplicas, "consistent-hash vnodes per worker")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 256, "router session-table cap (LRU eviction beyond it)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", 250*time.Millisecond, "health-probe cadence per worker")
	flag.DurationVar(&cfg.probeTimeout, "probe-timeout", 2*time.Second, "deadline for one probe exchange")
	flag.IntVar(&cfg.probeFailures, "probe-failures", 3, "consecutive probe failures that remove a worker from the ring")
	flag.IntVar(&cfg.relayAttempts, "relay-attempts", 3, "workers one request may be tried against before the client sees an error")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof/ on this address (empty disables)")
	flag.BoolVar(&cfg.logStructured, "log", false, "log at Debug: a trace_id-keyed record per relayed request")
	flag.Parse()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Stdout, cfg, stop, nil); err != nil {
		log.Fatal(err)
	}
}
