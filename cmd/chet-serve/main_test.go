package main

import (
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"chet"
	"chet/internal/ring"
	"chet/internal/serve"
)

// TestServeRoundTrip drives the whole binary path short of flag parsing:
// start the server on a demo ring, run one encrypted inference through
// serve.Dial, stop via the signal channel, and check the metrics report.
func TestServeRoundTrip(t *testing.T) {
	cfg := serveConfig{
		addr:           "127.0.0.1:0",
		model:          "LeNet-tiny",
		insecure:       true,
		workers:        2,
		parallel:       1,
		maxSessions:    4,
		queueDepth:     4,
		requestTimeout: time.Minute,
		batch:          1, // the flag default; 0 would auto-select a batched compile
	}
	var out strings.Builder
	ready := make(chan net.Addr, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var mu sync.Mutex
	logf := lockedWriter{&mu, &out}
	go func() { done <- run(&logf, cfg, stop, func(a, _ net.Addr) { ready <- a }) }()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}

	m, err := chet.Model(cfg.model)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := chet.Compile(m.Circuit, chet.Options{
		Scheme: chet.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.Dial(addr.String(), serve.ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(5)})
	if err != nil {
		t.Fatal(err)
	}
	img := chet.SyntheticImage(m.InputShape, 3)
	pred, err := c.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Circuit.Evaluate(img)
	if pred.ArgMax() != want.ArgMax() {
		t.Fatalf("encrypted argmax %d != plaintext %d", pred.ArgMax(), want.ArgMax())
	}
	c.Close()

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	mu.Lock()
	report := out.String()
	mu.Unlock()
	for _, want := range []string{"circuit fingerprint", "draining", "sessions: 1 opened", "1 completed", "evaluations of 1 image(s): 1"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestBuildServerRejectsUnknownModel(t *testing.T) {
	var out strings.Builder
	if _, _, err := buildServer(&out, serveConfig{model: "nope"}); err == nil {
		t.Fatal("expected an error for an unknown model")
	}
}

// lockedWriter serializes the server goroutine's log writes against the
// test's final read.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
