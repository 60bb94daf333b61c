package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chet"
	"chet/internal/circuit"
	"chet/internal/ckks"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
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
)

// testCompiled compiles one small CNN shared by every test in this package:
// compilation and the per-client key generation dominate test wall-clock,
// so the circuit is kept tiny and the security check disabled.
func testCompiled(t *testing.T) *core.Compiled {
	t.Helper()
	compileOnce.Do(func() {
		b := circuit.NewBuilder("serve-test-cnn")
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

// startServer runs a Server on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
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
	return ln.Addr().String()
}

func dialClient(t *testing.T, addr string, comp *core.Compiled, seed uint64) *Client {
	t.Helper()
	c, err := Dial(addr, ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(seed)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func errCode(t *testing.T, err error) wire.ErrorCode {
	t.Helper()
	var ef *wire.ErrorFrame
	if !errors.As(err, &ef) {
		t.Fatalf("expected a wire.ErrorFrame, got %v", err)
	}
	return ef.Code
}

// TestServeE2EBitIdentical is the acceptance test: several concurrent client
// sessions, each verifying that the server's encrypted prediction decrypts
// bit-identically to the same circuit run locally through chet.Session on
// the client's own backend (same keys, same input ciphertext — homomorphic
// evaluation is deterministic, so equality is exact, not approximate).
func TestServeE2EBitIdentical(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp, Workers: 2, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	const clients = 3
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(uint64(100 + i))})
			if err != nil {
				t.Errorf("client %d: dial: %v", i, err)
				return
			}
			defer c.Close()
			local := &chet.Session{Compiled: comp, Backend: c.backend}
			for req := 0; req < 2; req++ {
				img := randTensor([]int{1, 5, 5}, 1, int64(10*i+req))
				enc := c.Encrypt(img)
				want := local.Decrypt(local.Infer(enc))
				out, err := c.Infer(enc)
				if err != nil {
					t.Errorf("client %d req %d: %v", i, req, err)
					return
				}
				got := c.Decrypt(out)
				if len(got.Data) != len(want.Data) {
					t.Errorf("client %d req %d: got %d outputs, want %d", i, req, len(got.Data), len(want.Data))
					return
				}
				for k := range got.Data {
					if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
						t.Errorf("client %d req %d output %d: server %v != local %v (not bit-identical)",
							i, req, k, got.Data[k], want.Data[k])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if m.SessionsOpened != clients || m.Completed != 2*clients {
		t.Fatalf("metrics: opened %d completed %d, want %d/%d", m.SessionsOpened, m.Completed, clients, 2*clients)
	}
	if m.Latency.Count != 2*clients || m.Latency.P50 <= 0 {
		t.Fatalf("latency summary not recorded: %+v", m.Latency)
	}
	for _, sm := range m.Sessions {
		if sm.Requests != 2 || sm.Ops.Total() == 0 {
			t.Fatalf("session %d metrics: %+v", sm.ID, sm)
		}
	}
}

// TestSessionEvictionUnderCap holds the registry at one session: a second
// client evicts the first, whose next request transparently re-opens.
func TestSessionEvictionUnderCap(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	a := dialClient(t, addr, comp, 201)
	b := dialClient(t, addr, comp, 202)
	img := randTensor([]int{1, 5, 5}, 1, 9)

	if _, err := b.Infer(b.Encrypt(img)); err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	// a's session was evicted when b opened; Infer must recover via one
	// transparent re-open (which in turn evicts b).
	if _, err := a.Infer(a.Encrypt(img)); err != nil {
		t.Fatalf("evicted session did not recover: %v", err)
	}
	m := s.Metrics()
	if m.SessionsOpened != 3 || m.SessionsEvicted != 2 || m.SessionsActive != 1 {
		t.Fatalf("opened/evicted/active = %d/%d/%d, want 3/2/1", m.SessionsOpened, m.SessionsEvicted, m.SessionsActive)
	}
}

// TestUnknownSessionErrorFrame drives the wire directly: an infer for a
// session ID that was never opened earns an error frame, not a dead server.
func TestUnknownSessionErrorFrame(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr, comp, 203)
	enc := c.Encrypt(randTensor([]int{1, 5, 5}, 1, 9))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := (&wire.InferBatchRequest{SessionID: 777, RequestID: 1, Count: 1, Tensor: enc}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgInferBatchRequest, payload); err != nil {
		t.Fatal(err)
	}
	tp, resp, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil || tp != wire.MsgError {
		t.Fatalf("expected error frame, got type %v err %v", tp, err)
	}
	var ef wire.ErrorFrame
	if err := ef.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if ef.Code != wire.CodeUnknownSession {
		t.Fatalf("code = %v, want %v", ef.Code, wire.CodeUnknownSession)
	}
}

// TestFingerprintMismatch rejects a client whose compile disagrees.
func TestFingerprintMismatch(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fp := comp.Fingerprint()
	fp[0] ^= 0xFF
	c := dialClient(t, addr, comp, 204) // donor for valid key material
	payload, err := (&wire.SessionOpen{
		Fingerprint: fp, Rotations: c.keys.Rotations,
		PK: c.keys.PK, RLK: c.keys.RLK, RTKS: c.keys.RTKS,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgSessionOpen, payload); err != nil {
		t.Fatal(err)
	}
	tp, resp, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil || tp != wire.MsgError {
		t.Fatalf("expected error frame, got type %v err %v", tp, err)
	}
	var ef wire.ErrorFrame
	if err := ef.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if ef.Code != wire.CodeFingerprintMismatch {
		t.Fatalf("code = %v, want %v", ef.Code, wire.CodeFingerprintMismatch)
	}
}

// TestQueueFullRejection saturates a depth-1 queue behind a blocked
// executor and expects immediate backpressure, then completion of the
// admitted work once the executor resumes.
func TestQueueFullRejection(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp, QueueDepth: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.execHook = func() {
		started <- struct{}{}
		<-release
	}
	addr := startServer(t, s)

	c1 := dialClient(t, addr, comp, 211)
	c2 := dialClient(t, addr, comp, 212)
	c3 := dialClient(t, addr, comp, 213)
	img := randTensor([]int{1, 5, 5}, 1, 9)

	type result struct {
		err error
	}
	res1, res2 := make(chan result, 1), make(chan result, 1)
	go func() { _, err := c1.Infer(c1.Encrypt(img)); res1 <- result{err} }()
	<-started // c1's job occupies the executor
	go func() { _, err := c2.Infer(c2.Encrypt(img)); res2 <- result{err} }()
	for i := 0; s.requests.Load() < 2; i++ { // c2's job sits in the queue
		if i > 5000 {
			t.Fatal("second request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	_, err = c3.Infer(c3.Encrypt(img))
	if code := errCode(t, err); code != wire.CodeQueueFull {
		t.Fatalf("code = %v, want %v", code, wire.CodeQueueFull)
	}

	close(release)
	if r := <-res1; r.err != nil {
		t.Fatalf("admitted request 1 failed: %v", r.err)
	}
	if r := <-res2; r.err != nil {
		t.Fatalf("admitted request 2 failed: %v", r.err)
	}
	if m := s.Metrics(); m.RejectedQueueFull != 1 || m.Completed != 2 {
		t.Fatalf("rejected/completed = %d/%d, want 1/2", m.RejectedQueueFull, m.Completed)
	}
}

// TestDeadlineExpiry exercises both deadline checkpoints: a request whose
// evaluation overruns its deadline, and a request that expires while queued
// behind it.
func TestDeadlineExpiry(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp, QueueDepth: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var once sync.Once
	s.execHook = func() {
		// Only the first evaluation stalls; anything after runs free.
		once.Do(func() { <-gate })
	}
	addr := startServer(t, s)

	slow := dialClient(t, addr, comp, 221)
	slow.cfg.Timeout = 100 * time.Millisecond
	queued := dialClient(t, addr, comp, 222)
	queued.cfg.Timeout = 100 * time.Millisecond
	img := randTensor([]int{1, 5, 5}, 1, 9)

	type result struct {
		err error
	}
	resSlow, resQueued := make(chan result, 1), make(chan result, 1)
	go func() { _, err := slow.Infer(slow.Encrypt(img)); resSlow <- result{err} }()
	for i := 0; s.requests.Load() < 1; i++ {
		if i > 5000 {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	go func() { _, err := queued.Infer(queued.Encrypt(img)); resQueued <- result{err} }()

	time.Sleep(150 * time.Millisecond) // both deadlines pass
	close(gate)

	if code := errCode(t, (<-resSlow).err); code != wire.CodeDeadlineExceeded {
		t.Fatalf("overrunning request: code = %v, want %v", code, wire.CodeDeadlineExceeded)
	}
	if code := errCode(t, (<-resQueued).err); code != wire.CodeDeadlineExceeded {
		t.Fatalf("queued request: code = %v, want %v", code, wire.CodeDeadlineExceeded)
	}
	if m := s.Metrics(); m.RejectedDeadline != 2 {
		t.Fatalf("RejectedDeadline = %d, want 2", m.RejectedDeadline)
	}
}

// TestEvalPanicFailsOnlyItsRequest: a panic inside one evaluation (here
// injected through execHook) answers that request with an internal error,
// and the server keeps serving — the next request decrypts bit-identically
// to local inference.
func TestEvalPanicFailsOnlyItsRequest(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	s.execHook = func() {
		if calls.Add(1) == 1 {
			panic("injected poison")
		}
	}
	addr := startServer(t, s)
	c := dialClient(t, addr, comp, 341)
	local := &chet.Session{Compiled: comp, Backend: c.backend}

	_, err = c.Infer(c.Encrypt(randTensor([]int{1, 5, 5}, 1, 440)))
	if code := errCode(t, err); code != wire.CodeInternal {
		t.Fatalf("panicking request: code = %v, want %v", code, wire.CodeInternal)
	}
	enc := c.Encrypt(randTensor([]int{1, 5, 5}, 1, 441))
	want := local.Decrypt(local.Infer(enc))
	out, err := c.Infer(enc)
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	got := c.Decrypt(out)
	for k := range got.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("output %d after the panic: %v != %v (not bit-identical)", k, got.Data[k], want.Data[k])
		}
	}
	if m := s.Metrics(); m.Errors != 1 || m.Completed != 1 || m.Evaluation.Count != 2 {
		t.Fatalf("errors=%d completed=%d evaluations=%d, want 1/1/2", m.Errors, m.Completed, m.Evaluation.Count)
	}
}

// TestGracefulShutdownDrain starts an inference, begins Shutdown while it
// is executing, and checks that (1) requests arriving during the drain get
// shutting-down error frames, (2) the in-flight inference completes and its
// response is delivered, (3) Shutdown returns cleanly.
func TestGracefulShutdownDrain(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	s.execHook = func() {
		once.Do(func() {
			started <- struct{}{}
			<-release
		})
	}
	addr := startServer(t, s)

	inflight := dialClient(t, addr, comp, 231)
	late := dialClient(t, addr, comp, 232)
	img := randTensor([]int{1, 5, 5}, 1, 9)

	type result struct {
		err error
	}
	res := make(chan result, 1)
	go func() { _, err := inflight.Infer(inflight.Encrypt(img)); res <- result{err} }()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for i := 0; !s.ep.Draining(); i++ {
		if i > 5000 {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// A request during the drain is refused, not queued.
	_, err = late.Infer(late.Encrypt(img))
	if code := errCode(t, err); code != wire.CodeShuttingDown {
		t.Fatalf("drain-time request: code = %v, want %v", code, wire.CodeShuttingDown)
	}

	close(release)
	if r := <-res; r.err != nil {
		t.Fatalf("in-flight request lost during graceful shutdown: %v", r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if m := s.Metrics(); m.Completed != 1 || m.RejectedShutdown < 1 {
		t.Fatalf("completed/rejectedShutdown = %d/%d, want 1/>=1", m.Completed, m.RejectedShutdown)
	}
}

// TestMalformedFramesDoNotCrash throws junk at a live server and checks it
// answers with error frames (or drops the connection) and keeps serving.
func TestMalformedFramesDoNotCrash(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	for _, junk := range [][]byte{
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
		// Whether the server answers with an error frame or just hangs up,
		// the connection must terminate promptly.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			if _, _, err := wire.ReadFrame(conn, wire.DefaultMaxFrame); err != nil {
				break
			}
		}
		conn.Close()
	}

	// The server is still healthy: a real client round-trips.
	c := dialClient(t, addr, comp, 241)
	if _, err := c.Infer(c.Encrypt(randTensor([]int{1, 5, 5}, 1, 9))); err != nil {
		t.Fatalf("server unhealthy after junk: %v", err)
	}
}

// TestBadTensorRejected sends well-framed requests whose tensor metadata
// does not match the compiled input layout: each is refused with bad-message
// at admission and none reaches an evaluation.
func TestBadTensorRejected(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr, comp, 251)

	enc := c.Encrypt(randTensor([]int{1, 5, 5}, 1, 9))
	for _, tc := range []struct {
		name   string
		mutate func(*htc.CipherTensor)
	}{
		// The origin stays fine; the extent overflows the slot count.
		{"W overflow", func(ct *htc.CipherTensor) { ct.W *= 1024 }},
		// A real-packed program has no conjugation key, so a complex tensor
		// must be refused before it reaches the evaluation.
		{"complex flipped", func(ct *htc.CipherTensor) { ct.Complex = !ct.Complex }},
		{"B = 0", func(ct *htc.CipherTensor) { ct.B = 0 }},
		{"BatchStride = 0", func(ct *htc.CipherTensor) { ct.BatchStride = 0 }},
	} {
		bad := *enc
		tc.mutate(&bad)
		_, err = c.Infer(&bad)
		if code := errCode(t, err); code != wire.CodeBadMessage {
			t.Fatalf("%s: code = %v, want %v (%v)", tc.name, code, wire.CodeBadMessage, err)
		}
	}
	if n := s.Metrics().Evaluation.Count; n != 0 {
		t.Fatalf("%d evaluations, want every bad tensor refused at admission", n)
	}
}

// TestPoisonedTensorRejected: two sessions send at once, one of them a
// tensor whose cleartext scale lies. Scale and level are metadata a request
// could forge, so admission refuses the lie outright rather than feed the
// circuit silent garbage, and the other session's request is served
// bit-identically.
func TestPoisonedTensorRejected(t *testing.T) {
	comp := testBatchCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	healthy := dialClient(t, addr, comp, 331)
	poisoner := dialClient(t, addr, comp, 332)

	local := &chet.Session{Compiled: comp, Backend: healthy.backend}
	healthyEnc := healthy.Encrypt(randTensor([]int{1, 5, 5}, 1, 430))
	want := local.Decrypt(local.Infer(healthyEnc))
	poisonEnc := poisoner.Encrypt(randTensor([]int{1, 5, 5}, 1, 431))
	poisonEnc.CTs[0].(*ckks.Ciphertext).Scale = math.Exp2(200)

	var wg sync.WaitGroup
	var out *htc.CipherTensor
	var poisonErr, healthyErr error
	wg.Add(2)
	go func() { defer wg.Done(); _, poisonErr = poisoner.Infer(poisonEnc) }()
	go func() { defer wg.Done(); out, healthyErr = healthy.Infer(healthyEnc) }()
	wg.Wait()

	if code := errCode(t, poisonErr); code != wire.CodeBadMessage {
		t.Fatalf("poisoned request: code = %v, want %v", code, wire.CodeBadMessage)
	}
	if healthyErr != nil {
		t.Fatalf("healthy request failed alongside a poisoned one: %v", healthyErr)
	}
	got := healthy.Decrypt(out)
	for k := range got.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("healthy output %d: %v != %v (not bit-identical)", k, got.Data[k], want.Data[k])
		}
	}
	if m := s.Metrics(); m.Completed != 1 || m.Evaluation.Count != 1 {
		t.Fatalf("completed=%d evaluations=%d, want the healthy request alone", m.Completed, m.Evaluation.Count)
	}
}

// TestNewRejectsMockScheme: the HEAAN mock has no transferable keys, so a
// server (or client) over it must be refused at construction.
func TestNewRejectsMockScheme(t *testing.T) {
	b := circuit.NewBuilder("mock")
	x := b.Input(1, 4, 4)
	x = b.Flatten(x, "flat")
	x = b.Dense(x, randTensor([]int{2, 16}, 0.4, 1), nil, "fc")
	comp, err := core.Compile(b.Build(x), core.Options{
		Scheme:       core.SchemeCKKS,
		SecurityBits: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Compiled: comp}); err == nil {
		t.Fatal("New accepted the mock scheme")
	}
	if _, err := NewClient(nil, ClientConfig{Compiled: comp}); err == nil {
		t.Fatal("NewClient accepted the mock scheme")
	}
}

// openRaw sends one session-open frame and returns the server's answer.
func openRaw(t *testing.T, addr string, msg *wire.SessionOpen) (wire.MsgType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgSessionOpen, payload); err != nil {
		t.Fatal(err)
	}
	tp, resp, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("reading the server's answer: %v", err)
	}
	return tp, resp
}

func wantErrorFrame(t *testing.T, tp wire.MsgType, resp []byte, code wire.ErrorCode) {
	t.Helper()
	if tp != wire.MsgError {
		t.Fatalf("expected an error frame, got %v", tp)
	}
	var ef wire.ErrorFrame
	if err := ef.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if ef.Code != code {
		t.Fatalf("code = %v (%s), want %v", ef.Code, ef.Message, code)
	}
}

// TestWrongKeyShapeRejected is the admission contract of the planned key
// shape: a switching key planned for level ℓ must serve exactly ℓ, with
// exactly ⌈(ℓ+1)/α⌉ digits over its ℓ+1 chain rows and the special rows, for
// the server's α. Keys generated under another α — honestly fingerprinted
// or forged — keys with a digit too many, and keys cut one level above or
// below the plan are refused with a typed error frame at session-open;
// nothing reaches the inner product, and the server keeps serving.
func TestWrongKeyShapeRejected(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	// A peer whose compilation chose another special-prime count.
	other := *comp
	other.Best.SpecialPrimes = comp.Best.SpecialPrimes%len(comp.Best.RNSChainBits) + 1
	if other.Fingerprint() == comp.Fingerprint() {
		t.Fatal("the fingerprint does not cover the special-prime count")
	}
	params, err := core.RNSParameters(&other)
	if err != nil {
		t.Fatal(err)
	}
	cfg := other.KeyConfig(params)
	cfg.PRNG = ring.NewTestPRNG(261)
	keys := hisa.NewRNSBackend(cfg).PublicKeys()
	open := func(fp [32]byte, k hisa.RNSPublicKeys) (wire.MsgType, []byte) {
		return openRaw(t, addr, &wire.SessionOpen{Fingerprint: fp, Rotations: k.Rotations, PK: k.PK, RLK: k.RLK, RTKS: k.RTKS})
	}
	tp, resp := open(other.Fingerprint(), keys)
	wantErrorFrame(t, tp, resp, wire.CodeFingerprintMismatch)
	tp, resp = open(comp.Fingerprint(), keys) // forged fingerprint, wrong-shaped keys
	wantErrorFrame(t, tp, resp, wire.CodeBadMessage)

	// Right α, one digit too many on the relinearization key.
	good := dialClient(t, addr, comp, 262)
	rlk := *good.keys.RLK.Key
	rlk.B = append(append([]*ring.Poly(nil), rlk.B...), rlk.B[0])
	rlk.A = append(append([]*ring.Poly(nil), rlk.A...), rlk.A[0])
	padded := good.keys
	padded.RLK = &ckks.RelinearizationKey{Key: &rlk}
	tp, resp = open(comp.Fingerprint(), padded)
	wantErrorFrame(t, tp, resp, wire.CodeBadMessage)

	// Right α, one rotation key cut one level above its plan, then one below.
	own, err := core.RNSParameters(comp)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int{1, -1} {
		plan := *comp.Keys
		plan.Rotations = maps.Clone(comp.Keys.Rotations)
		for k, level := range plan.Rotations {
			if l := level + delta; l >= 0 && l <= own.MaxLevel() {
				plan.Rotations[k] = l
				break
			}
		}
		shifted := *comp
		shifted.Keys = &plan
		cfg := shifted.KeyConfig(own)
		cfg.PRNG = ring.NewTestPRNG(263)
		tp, resp = open(comp.Fingerprint(), hisa.NewRNSBackend(cfg).PublicKeys())
		wantErrorFrame(t, tp, resp, wire.CodeBadMessage)
	}

	if _, err := good.Infer(good.Encrypt(randTensor([]int{1, 5, 5}, 1, 9))); err != nil {
		t.Fatalf("server unhealthy after refused session-opens: %v", err)
	}
}

// TestFrameLimitSizedFromModel: both endpoints cap frames at what the
// compiled model's own session-open and tensors encode to — real traffic
// fits, and a length prefix beyond the cap (far below the protocol's 1 GiB
// ceiling) is refused from the header alone, before the server allocates
// anything for it.
func TestFrameLimitSizedFromModel(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr, comp, 271)

	open, err := (&wire.SessionOpen{Fingerprint: comp.Fingerprint(), Rotations: c.keys.Rotations,
		PK: c.keys.PK, RLK: c.keys.RLK, RTKS: c.keys.RTKS}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	limit := s.ep.MaxFrame()
	if limit != c.maxFrame {
		t.Fatalf("server caps frames at %d, client at %d", limit, c.maxFrame)
	}
	if limit < len(open) || limit > len(open)+frameMargin+(64<<10) {
		t.Fatalf("frame limit %d for a %d-byte session-open: want the open plus the largest tensor plus %d", limit, len(open), frameMargin)
	}
	if _, err := c.Infer(c.Encrypt(randTensor([]int{1, 5, 5}, 1, 9))); err != nil {
		t.Fatalf("a real request does not fit the derived limit: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const claimed = 512 << 20 // the old 1 GiB default would have allocated this
	hdr := []byte{0xF1, 0x5E, 0xE7, 0xC4, wire.Version, byte(wire.MsgSessionOpen), 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[8:], claimed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fp := comp.Fingerprint()
	if _, err := conn.Write(append(hdr, fp[:]...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	tp, resp, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("no answer to an oversize prefix: %v", err)
	}
	runtime.ReadMemStats(&after)
	wantErrorFrame(t, tp, resp, wire.CodeBadMessage)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/8 {
		t.Fatalf("server allocated %d bytes answering a %d-byte length prefix", grew, claimed)
	}
}

// TestInputScaleAdmittedExactly: every admitted input scale adds bias
// plaintexts to the server's shared constant store, so admission demands
// the compiled input scale bit for bit — honest clients encode at exactly
// that scale — and the store stops growing after a session's first request.
func TestInputScaleAdmittedExactly(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr, comp, 261)

	off := c.Encrypt(randTensor([]int{1, 5, 5}, 1, 20))
	off.CTs[0].(*ckks.Ciphertext).Scale = comp.Options.Scales.Pc * (1 + 1e-9)
	_, err = c.Infer(off)
	if code := errCode(t, err); code != wire.CodeBadMessage || !strings.Contains(err.Error(), "compiled input scale") {
		t.Fatalf("a tensor at Pc·(1+1e-9) got %v, want %v naming the compiled input scale", err, wire.CodeBadMessage)
	}

	var after1 int
	for req := 0; req < 20; req++ {
		if _, err := c.Infer(c.Encrypt(randTensor([]int{1, 5, 5}, 1, int64(21+req)))); err != nil {
			t.Fatalf("request %d: %v", req, err)
		}
		if req == 0 {
			after1 = s.Metrics().ConstantPlaintexts
		}
	}
	if after1 == 0 {
		t.Fatal("the first request stored no constants")
	}
	if n := s.Metrics().ConstantPlaintexts; n != after1 {
		t.Fatalf("store holds %d plaintexts after 20 requests, %d after the first", n, after1)
	}
}
