package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"chet"
	"chet/internal/ring"
	"chet/internal/serve"
)

// TestRouterObservabilityEndpoints runs the binary path with -metrics-addr
// in front of two traced workers: one encrypted inference through the live
// router, a /metrics scrape (router series plus the per-worker budget
// telemetry learned over health probes), and a /trace fetch that must
// return the merged cross-process Chrome trace for that request's ID.
func TestRouterObservabilityEndpoints(t *testing.T) {
	m, err := chet.Model("LeNet-tiny")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := chet.Compile(m.Circuit, chet.Options{
		Scheme: chet.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13,
	})
	if err != nil {
		t.Fatal(err)
	}

	var workerAddrs []string
	for i := 0; i < 2; i++ {
		s, err := serve.New(serve.Config{
			Compiled: comp, Workers: 2, Trace: true,
			ProcessLabel: fmt.Sprintf("worker-%c", 'a'+i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		workerAddrs = append(workerAddrs, ln.Addr().String())
	}

	cfg := routerConfig{
		addr:          "127.0.0.1:0",
		workers:       strings.Join(workerAddrs, ","),
		maxSessions:   16,
		probeInterval: 25 * time.Millisecond,
		metricsAddr:   "127.0.0.1:0",
	}
	var out strings.Builder
	var mu sync.Mutex
	logf := &lockedWriter{&mu, &out}
	ready := make(chan [2]net.Addr, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(logf, cfg, stop, func(a, ma net.Addr) { ready <- [2]net.Addr{a, ma} })
	}()

	var addrs [2]net.Addr
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("router exited early: %v", err)
	}
	if addrs[1] == nil {
		t.Fatal("onReady delivered no metrics address despite -metrics-addr")
	}

	const traceBase = uint64(0x0B5) << 32
	c, err := serve.Dial(addrs[0].String(), serve.ClientConfig{
		Compiled: comp, PRNG: ring.NewTestPRNG(5), TraceBase: traceBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	img := chet.SyntheticImage(m.InputShape, 3)
	if _, err := c.Run(img); err != nil {
		t.Fatal(err)
	}
	c.Close()

	body := routerHTTPGet(t, fmt.Sprintf("http://%s/metrics", addrs[1]), http.StatusOK)
	for _, series := range []string{
		"chet_router_relays_total 1",
		"chet_router_sessions_opened_total 1",
		"chet_router_live_workers 2",
		"chet_router_trace_spans",
		"chet_router_trace_spans_dropped_total",
		"chet_router_worker_bootstraps_total{worker=",
		"chet_router_worker_relayed_total{worker=",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q:\n%s", series, body)
		}
	}

	// The first request's trace ID is deterministic: TraceBase+1. The
	// merged trace must cover the router and the worker that evaluated it.
	traceURL := fmt.Sprintf("http://%s/trace?id=%016x", addrs[1], traceBase+1)
	trace := routerHTTPGet(t, traceURL, http.StatusOK)
	for _, want := range []string{
		`"traceEvents"`,
		`"process_name"`,
		"chet-router",
		fmt.Sprintf(`"trace_id":"%016x"`, traceBase+1),
		"relay:",
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("/trace missing %q:\n%.2000s", want, trace)
		}
	}
	routerHTTPGet(t, fmt.Sprintf("http://%s/trace?id=zzz", addrs[1]), http.StatusBadRequest)

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

func routerHTTPGet(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	return string(body)
}
