package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chet/internal/circuit"
	"chet/internal/core"
	"chet/internal/fleet"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/serve"
	"chet/internal/telemetry"
	"chet/internal/tensor"
	"chet/internal/wire"
)

func randTensor(shape []int, bound float64, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

var (
	compileOnce sync.Once
	compiled    *core.Compiled
	compileErr  error

	batchCompileOnce sync.Once
	batchCompiled    *core.Compiled
	batchCompileErr  error
)

// testCompiled compiles the same tiny CNN the serve package tests use:
// compilation and keygen dominate wall-clock, so it is shared per package.
func testCompiled(t *testing.T) *core.Compiled {
	t.Helper()
	compileOnce.Do(func() {
		b := circuit.NewBuilder("fleet-test-cnn")
		x := b.Input(1, 5, 5)
		x = b.Conv2D(x, randTensor([]int{2, 1, 3, 3}, 0.4, 1), randTensor([]int{2}, 0.2, 2), 1, 0, "conv1")
		x = b.Activation(x, 0.1, 0.9, "act1")
		x = b.Flatten(x, "flat")
		x = b.Dense(x, randTensor([]int{3, 18}, 0.4, 3), randTensor([]int{3}, 0.2, 4), "fc")
		compiled, compileErr = core.Compile(b.Build(x), core.Options{
			Scheme:       core.SchemeRNS,
			SecurityBits: -1,
			MinLogN:      5,
			MaxLogN:      9,
		})
	})
	if compileErr != nil {
		t.Fatalf("compiling test circuit: %v", compileErr)
	}
	return compiled
}

func testBatchCompiled(t *testing.T) *core.Compiled {
	t.Helper()
	batchCompileOnce.Do(func() {
		b := circuit.NewBuilder("fleet-test-cnn-batched")
		x := b.Input(1, 5, 5)
		x = b.Conv2D(x, randTensor([]int{2, 1, 3, 3}, 0.4, 1), randTensor([]int{2}, 0.2, 2), 1, 0, "conv1")
		x = b.Activation(x, 0.1, 0.9, "act1")
		x = b.Flatten(x, "flat")
		x = b.Dense(x, randTensor([]int{3, 18}, 0.4, 3), randTensor([]int{3}, 0.2, 4), "fc")
		batchCompiled, batchCompileErr = core.Compile(b.Build(x), core.Options{
			Scheme:       core.SchemeRNS,
			SecurityBits: -1,
			MinLogN:      5,
			MaxLogN:      11,
			Batch:        4,
		})
	})
	if batchCompileErr != nil {
		t.Fatalf("compiling batched test circuit: %v", batchCompileErr)
	}
	return batchCompiled
}

// startWorker runs a serve.Server on loopback and tears it down with the
// test (Shutdown is idempotent, so tests that kill a worker early are fine).
func startWorker(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s, err := serve.New(cfg)
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
	return s, ln.Addr().String()
}

// startFleet runs n workers plus a router in front of them. Cleanups are
// LIFO, so the router drains before its workers do.
func startFleet(t *testing.T, n int, wcfg serve.Config, rcfg fleet.Config) (*fleet.Router, string, map[string]*serve.Server) {
	t.Helper()
	workers := map[string]*serve.Server{}
	for i := 0; i < n; i++ {
		s, addr := startWorker(t, wcfg)
		workers[addr] = s
		rcfg.Workers = append(rcfg.Workers, addr)
	}
	if rcfg.ProbeInterval == 0 {
		rcfg.ProbeInterval = 20 * time.Millisecond
	}
	r, err := fleet.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	})
	return r, ln.Addr().String(), workers
}

func dialVia(t *testing.T, addr string, comp *core.Compiled, seed uint64) *serve.Client {
	t.Helper()
	c, err := serve.Dial(addr, serve.ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(seed)})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sameBits(t *testing.T, got, want *tensor.Tensor, ctx string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: got %d outputs, want %d", ctx, len(got.Data), len(want.Data))
	}
	for k := range got.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("%s output %d: %v != %v (not bit-identical)", ctx, k, got.Data[k], want.Data[k])
		}
	}
}

// TestRouterE2EBitIdentical is the fleet acceptance test: clients that
// connect to the router get bit-identical answers to clients that connect to
// a worker directly. Each routed client has a seed twin dialing worker 0
// straight — same PRNG, same keys, same ciphertexts — so the homomorphic
// results must match to the last bit regardless of which worker the ring
// picked.
func TestRouterE2EBitIdentical(t *testing.T) {
	comp := testCompiled(t)
	r, addr, _ := startFleet(t, 3, serve.Config{Compiled: comp, Workers: 2, Parallel: 2}, fleet.Config{})

	const sessions = 4
	for i := 0; i < sessions; i++ {
		seed := uint64(700 + i)
		direct := dialVia(t, r.Metrics().Workers[0].Addr, comp, seed)
		routed := dialVia(t, addr, comp, seed)
		img := randTensor([]int{1, 5, 5}, 1, int64(70+i))

		encD, encR := direct.Encrypt(img), routed.Encrypt(img)
		outD, err := direct.Infer(encD)
		if err != nil {
			t.Fatalf("session %d direct: %v", i, err)
		}
		outR, err := routed.Infer(encR)
		if err != nil {
			t.Fatalf("session %d routed: %v", i, err)
		}
		sameBits(t, routed.Decrypt(outR), direct.Decrypt(outD), "routed vs direct")
	}

	m := r.Metrics()
	if m.SessionsOpened != sessions || m.Relays != sessions {
		t.Fatalf("router opened %d sessions, relayed %d; want %d/%d", m.SessionsOpened, m.Relays, sessions, sessions)
	}
	if m.Handoffs < sessions {
		t.Fatalf("handoffs = %d, want >= %d (one placement per session)", m.Handoffs, sessions)
	}
	if m.Failovers != 0 || m.ClientErrors != 0 {
		t.Fatalf("healthy fleet recorded failovers=%d clientErrors=%d", m.Failovers, m.ClientErrors)
	}
	if m.LiveWorkers != 3 {
		t.Fatalf("live workers = %d, want 3", m.LiveWorkers)
	}
	var relayed uint64
	for _, w := range m.Workers {
		relayed += w.Relayed
	}
	if relayed != sessions {
		t.Fatalf("per-worker relayed sums to %d, want %d", relayed, sessions)
	}
}

// TestRouterFailoverOnWorkerKill kills the worker that owns a live session
// and checks the client never sees it: the router removes the dead worker
// from the ring, replays the session's eval keys to the survivor, and the
// retried request returns the same bits the dead worker would have.
func TestRouterFailoverOnWorkerKill(t *testing.T) {
	comp := testCompiled(t)
	r, addr, workers := startFleet(t, 2,
		serve.Config{Compiled: comp, Workers: 2, Parallel: 2},
		fleet.Config{RelayAttempts: 4})

	cli := dialVia(t, addr, comp, 801)
	img := randTensor([]int{1, 5, 5}, 1, 81)
	enc := cli.Encrypt(img)
	before, err := cli.Infer(enc)
	if err != nil {
		t.Fatalf("pre-kill infer: %v", err)
	}

	var owner string
	for _, w := range r.Metrics().Workers {
		if w.Handoffs > 0 {
			owner = w.Addr
		}
	}
	if owner == "" {
		t.Fatal("no worker recorded the session handoff")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := workers[owner].Shutdown(ctx); err != nil {
		t.Fatalf("killing owner %s: %v", owner, err)
	}

	// Same ciphertext, new worker, replayed keys: the answer must not change.
	after, err := cli.Infer(enc)
	if err != nil {
		t.Fatalf("post-kill infer surfaced to the client: %v", err)
	}
	sameBits(t, cli.Decrypt(after), cli.Decrypt(before), "post-failover")

	m := r.Metrics()
	if m.Failovers == 0 {
		t.Fatalf("no failover recorded: %+v", m)
	}
	if m.Rebalances == 0 || m.LiveWorkers != 1 {
		t.Fatalf("ring did not rebalance: rebalances=%d live=%d", m.Rebalances, m.LiveWorkers)
	}
	if m.Handoffs < 2 {
		t.Fatalf("handoffs = %d, want >= 2 (placement + failover replay)", m.Handoffs)
	}
}

// TestRouterReplaysEvictedSessions pins the unknown-session recovery path:
// a worker whose LRU evicted a handed-off session answers unknown-session,
// and the router must replay the keys instead of passing the error through.
func TestRouterReplaysEvictedSessions(t *testing.T) {
	comp := testCompiled(t)
	r, addr, _ := startFleet(t, 1,
		serve.Config{Compiled: comp, MaxSessions: 1},
		fleet.Config{})

	a := dialVia(t, addr, comp, 811)
	b := dialVia(t, addr, comp, 812) // b's placement evicts a on the worker
	img := randTensor([]int{1, 5, 5}, 1, 82)

	if _, err := a.Infer(a.Encrypt(img)); err != nil {
		t.Fatalf("a (evicted worker-side) did not recover: %v", err)
	}
	if _, err := b.Infer(b.Encrypt(img)); err != nil {
		t.Fatalf("b (evicted by a's replay) did not recover: %v", err)
	}
	m := r.Metrics()
	if m.UnknownSessions == 0 {
		t.Fatalf("no unknown-session recovery recorded: %+v", m)
	}
	if m.ClientErrors != 0 {
		t.Fatalf("evictions leaked %d errors to clients", m.ClientErrors)
	}
}

// TestRouterFingerprintGateAndBatch covers the replicated registry and the
// batched relay path: once the probe loop has learned the fleet's model, a
// client compiled against anything else is refused at the router with a
// typed fingerprint error, a frame of the retired single-image type (code
// 3) earns an unexpected-frame error, and a matching client can run batched
// inference straight through.
func TestRouterFingerprintGateAndBatch(t *testing.T) {
	comp := testBatchCompiled(t)
	r, addr, _ := startFleet(t, 2, serve.Config{Compiled: comp},
		fleet.Config{ProbeInterval: 10 * time.Millisecond})

	deadline := time.Now().Add(10 * time.Second)
	for r.Metrics().RegistryModels == 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never learned the fleet's model from probes")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := serve.Dial(addr, serve.ClientConfig{Compiled: testCompiled(t), PRNG: ring.NewTestPRNG(821)}); err == nil {
		t.Fatal("mismatched compilation was admitted")
	} else {
		var ef *wire.ErrorFrame
		if !errors.As(err, &ef) || ef.Code != wire.CodeFingerprintMismatch {
			t.Fatalf("mismatched compilation: got %v, want CodeFingerprintMismatch", err)
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, 3, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	tp, resp, err := wire.ReadFrame(conn, 0)
	var ef wire.ErrorFrame
	if err != nil || tp != wire.MsgError || ef.Decode(resp) != nil ||
		ef.Code != wire.CodeBadMessage || !strings.Contains(ef.Message, "unexpected") {
		t.Fatalf("retired frame type 3: got %v %+v (err %v), want an unexpected-frame %v", tp, ef, err, wire.CodeBadMessage)
	}

	cli := dialVia(t, addr, comp, 822)
	imgs := []*tensor.Tensor{
		randTensor([]int{1, 5, 5}, 1, 83),
		randTensor([]int{1, 5, 5}, 1, 84),
	}
	got, err := cli.RunBatch(imgs)
	if err != nil {
		t.Fatalf("batched inference through the router: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("RunBatch returned %d tensors, want 2", len(got))
	}
	for i, g := range got {
		for k, v := range g.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("batch lane %d output %d is %v", i, k, v)
			}
		}
	}
}

// TestRouterShutdownDrains checks Shutdown is clean and idempotent and that
// a drained router refuses new connections.
func TestRouterShutdownDrains(t *testing.T) {
	comp := testCompiled(t)
	r, addr, _ := startFleet(t, 1, serve.Config{Compiled: comp}, fleet.Config{})

	cli := dialVia(t, addr, comp, 831)
	if _, err := cli.Infer(cli.Encrypt(randTensor([]int{1, 5, 5}, 1, 85))); err != nil {
		t.Fatalf("pre-shutdown infer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := serve.Dial(addr, serve.ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(832)}); err == nil {
		t.Fatal("drained router admitted a new connection")
	}
}

// TestRouterMalformedFramesDoNotCrash throws the junk the worker's
// TestMalformedFramesDoNotCrash sends at a router fronting one worker: each
// connection must end promptly (an error frame or a hang-up, never a stall),
// and a real client must still round-trip through the router afterwards.
func TestRouterMalformedFramesDoNotCrash(t *testing.T) {
	comp := testCompiled(t)
	_, addr, _ := startFleet(t, 1, serve.Config{Compiled: comp}, fleet.Config{})

	for i, junk := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xF1, 0x5E, 0xE7, 0xC4, 99, 1, 0, 0, 0, 0, 0, 0},               // bad version
		{0xF1, 0x5E, 0xE7, 0xC4, 1, 3, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},    // absurd length
		{0xF1, 0x5E, 0xE7, 0xC4, 1, 3, 0, 0, 4, 0, 0, 0, 1, 2, 3, 4},    // garbage infer payload
		{0xF1, 0x5E, 0xE7, 0xC4, 1, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}, // truncated open payload
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(junk)
		deadline := time.Now().Add(5 * time.Second)
		conn.SetReadDeadline(deadline)
		for {
			if _, _, err := wire.ReadFrame(conn, wire.DefaultMaxFrame); err != nil {
				break
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("junk %d: the router kept the connection open until the read deadline", i)
		}
		conn.Close()
	}

	cli := dialVia(t, addr, comp, 851)
	if _, err := cli.Infer(cli.Encrypt(randTensor([]int{1, 5, 5}, 1, 86))); err != nil {
		t.Fatalf("router unhealthy after junk: %v", err)
	}
}

// TestRouterMetricsEndpoint scrapes the router's Prometheus surface and
// checks the fleet series render, including the per-worker breakdown.
func TestRouterMetricsEndpoint(t *testing.T) {
	comp := testCompiled(t)
	r, addr, _ := startFleet(t, 2, serve.Config{Compiled: comp}, fleet.Config{})

	cli := dialVia(t, addr, comp, 841)
	if _, err := cli.Infer(cli.Encrypt(randTensor([]int{1, 5, 5}, 1, 86))); err != nil {
		t.Fatalf("infer: %v", err)
	}

	srv := httptest.NewServer(r.ObservabilityMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])

	for _, series := range []string{
		"chet_router_sessions_opened_total 1",
		"chet_router_relays_total 1",
		"chet_router_live_workers 2",
		"chet_router_worker_up{worker=",
		"chet_router_worker_inflight{worker=",
		"chet_router_worker_relayed_total{worker=",
		"chet_router_ring_rebalances_total",
		"chet_router_handoffs_total 1",
		"chet_router_trace_spans",
		"chet_router_trace_spans_dropped_total",
		"chet_router_worker_bootstraps_total{worker=",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %q\n%s", series, body)
		}
	}
}

// testBootCompiled compiles a deep MLP whose modulus chain cannot hold the
// whole circuit, so the compiler places bootstrap refreshes mid-circuit
// (the smallest geometry that forces them: NN-4 at logN 9, window 2).
func testBootCompiled(t *testing.T) *core.Compiled {
	t.Helper()
	comp, err := core.Compile(nn.DeepMLP(4).Circuit, core.Options{
		Scheme:       core.SchemeRNS,
		SecurityBits: -1,
		MinLogN:      9,
		MaxLogN:      9,
		Policies:     []htc.LayoutPolicy{htc.PolicyCHW},
		Bootstrap:    &core.BootstrapOptions{Window: 2},
	})
	if err != nil {
		t.Fatalf("compiling bootstrapped NN-4: %v", err)
	}
	if comp.BootPlan == nil || len(comp.BootPlan.Placements) == 0 {
		t.Fatal("NN-4 at window 2 placed no bootstraps")
	}
	return comp
}

// TestRouterTraceStitching is the distributed-tracing acceptance test: one
// request through the router must stitch into a single trace — the router's
// relay span parents the worker's request scope, CollectTrace merges both
// processes' rings, and the /trace endpoint serves the merged Chrome JSON
// with distinct pids. The bootstrap case additionally requires the
// request's refreshes to appear as boot:<stage> spans inside that scope and
// the router to learn the refresh tally and headroom from health acks.
func TestRouterTraceStitching(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compile func(*testing.T) *core.Compiled
		img     *tensor.Tensor
		boot    bool
	}{
		{"cnn", testCompiled, randTensor([]int{1, 5, 5}, 1, 87), false},
		{"bootstrap", testBootCompiled, nn.SyntheticImage(nn.DeepMLP(4).InputShape, 7), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp := tc.compile(t)
			// The bootstrapped evaluation runs about a minute under -race,
			// past the default 60s request deadline.
			r, addr, _ := startFleet(t, 2,
				serve.Config{Compiled: comp, Trace: true, RequestTimeout: 10 * time.Minute},
				fleet.Config{})

			const traceBase = 0x851 << 32
			cli, err := serve.Dial(addr, serve.ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(851), TraceBase: traceBase})
			if err != nil {
				t.Fatalf("dial %s: %v", addr, err)
			}
			t.Cleanup(func() { cli.Close() })
			if _, err := cli.Infer(cli.Encrypt(tc.img)); err != nil {
				t.Fatalf("infer: %v", err)
			}
			traceID := uint64(traceBase + 1) // request n carries trace ID TraceBase+n
			checkStitch(t, r, traceID, tc.boot)
		})
	}
}

// checkStitch runs TestRouterTraceStitching's assertions on one traced
// request; boot adds the bootstrap-budget checks.
func checkStitch(t *testing.T, r *fleet.Router, traceID uint64, boot bool) {
	t.Helper()
	procs := r.CollectTrace(traceID)
	if len(procs) < 2 {
		t.Fatalf("CollectTrace returned %d processes, want router + at least one worker", len(procs))
	}
	if procs[0].Name != "chet-router" {
		t.Fatalf("first process is %q, want chet-router", procs[0].Name)
	}
	pids := map[int]string{}
	for _, p := range procs {
		if prev, dup := pids[p.PID]; dup {
			t.Fatalf("pid %d assigned to both %q and %q", p.PID, prev, p.Name)
		}
		pids[p.PID] = p.Name
	}

	var relay telemetry.Span
	for _, s := range procs[0].Spans {
		if s.TraceID != traceID {
			t.Fatalf("CollectTrace(%#x) leaked router span %q from trace %#x", traceID, s.Op, s.TraceID)
		}
		if strings.HasPrefix(s.Op, "relay:") {
			relay = s
		}
	}
	if relay.SpanID == 0 {
		t.Fatalf("router recorded no relay span for trace %#x: %+v", traceID, procs[0].Spans)
	}

	var request, queueWait telemetry.Span
	var bootSpans []telemetry.Span
	for _, p := range procs[1:] {
		for _, s := range p.Spans {
			if s.TraceID != traceID {
				t.Fatalf("worker %q span %q from trace %#x leaked into trace %#x", p.Name, s.Op, s.TraceID, traceID)
			}
			switch {
			case strings.HasPrefix(s.Op, "infer ") && s.Kind == telemetry.KindScope:
				request = s
			case s.Op == "queue-wait":
				queueWait = s
			case strings.HasPrefix(s.Op, "boot:"):
				bootSpans = append(bootSpans, s)
			}
		}
	}
	if request.SpanID == 0 {
		t.Fatalf("no worker recorded a request scope for trace %#x", traceID)
	}
	if request.Parent != relay.SpanID {
		t.Fatalf("worker request scope parent = %#x, want router relay span %#x", request.Parent, relay.SpanID)
	}
	if queueWait.Parent != relay.SpanID {
		t.Fatalf("queue-wait parent = %#x, want router relay span %#x", queueWait.Parent, relay.SpanID)
	}

	if boot {
		inRequest := 0
		for _, s := range bootSpans {
			if strings.HasPrefix(s.Scope, request.Op) {
				inRequest++
			}
		}
		if inRequest == 0 {
			t.Fatalf("no boot: stage span inside request scope %q (%d boot: spans in the trace)", request.Op, len(bootSpans))
		}
		// The tally and headroom ride the workers' health acks, so the next
		// probe after the request carries them; the deadline only bounds a
		// loaded host.
		deadline := time.Now().Add(5 * time.Second)
		for {
			var bootstraps uint64
			known := false
			for _, w := range r.Metrics().Workers {
				bootstraps += w.Bootstraps
				known = known || w.HeadroomKnown
			}
			if bootstraps > 0 && known {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("router never learned budget telemetry: bootstraps=%d headroomKnown=%v", bootstraps, known)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The /trace endpoint must serve the same stitch as Chrome JSON.
	srv := httptest.NewServer(r.ObservabilityMux())
	defer srv.Close()
	resp, err := srv.Client().Get(fmt.Sprintf("%s/trace?id=%016x", srv.URL, traceID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/trace did not return valid JSON: %v", err)
	}
	eventPids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		eventPids[e.Pid] = true
		if got := e.Args["trace_id"]; got != fmt.Sprintf("%016x", traceID) {
			t.Fatalf("/trace event carries trace_id %v, want %016x", got, traceID)
		}
	}
	if len(eventPids) < 2 {
		t.Fatalf("/trace events span %d pids, want router and worker tracks", len(eventPids))
	}

	badResp, err := srv.Client().Get(srv.URL + "/trace?id=zzz")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != 400 {
		t.Errorf("/trace?id=zzz returned %d, want 400", badResp.StatusCode)
	}
}
