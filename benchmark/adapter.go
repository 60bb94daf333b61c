package main

// adapter.go is the only file of the benchmark that imports chet/internal/...
// Everything else goes through the root chet package, the chet-serve and
// chet-router binaries, their /metrics pages and the operating system, so a
// refactor of the internal packages has one file to repair here.

import (
	"fmt"
	"net"
	"strings"
	"time"

	"chet"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/ring"
	"chet/internal/serve"
	"chet/internal/telemetry"
	"chet/internal/wire"
)

// newSession builds a chet.Session whose key generation and encryption noise
// are drawn from a PRNG seeded with seed, so a seed fixes every input.
func newSession(comp *chet.Compiled, seed uint64) (*chet.Session, error) {
	return chet.NewSession(comp, ring.NewTestPRNG(seed))
}

// client is the serving protocol's client side.
type client = serve.Client

// openSession generates this client's keys from seed and performs the
// session-open handshake (evaluation-key upload) over conn.
func openSession(conn net.Conn, comp *chet.Compiled, seed uint64) (*client, error) {
	return serve.NewClient(conn, serve.ClientConfig{
		Compiled: comp,
		PRNG:     ring.NewTestPRNG(seed),
		Timeout:  60 * time.Second,
	})
}

// opTotal is one HISA op kind's tally over a traced pass.
type opTotal struct {
	Count   int64
	Seconds float64
}

// tracedPass is what one traced, serial execution recorded.
type tracedPass struct {
	Ops     map[string]opTotal // by tracer mnemonic ("mul", "rotl", ...)
	Kernels map[string]float64 // top-level kernel scope seconds by circuit op kind ("conv2d", ...)
	Spans   int64
	Dropped uint64
}

// traceSession wraps the session's backend in a span tracer, runs fn, restores
// the backend and returns what was recorded. The caller sets Workers to 1 so
// that kernel scopes tile the wall time of fn.
func traceSession(s *chet.Session, fn func()) tracedPass {
	inner := s.Backend
	// 1<<18 spans hold the largest single program the benchmark traces;
	// Dropped reports it if a later change outgrows the ring.
	tr := telemetry.NewTracer(inner, telemetry.Config{Capacity: 1 << 18})
	s.Backend = tr
	defer func() { s.Backend = inner }()
	fn()

	p := tracedPass{
		Ops:     map[string]opTotal{},
		Kernels: map[string]float64{},
		Spans:   tr.SpanCount(),
		Dropped: tr.Dropped(),
	}
	for op, t := range tr.Totals() {
		p.Ops[op] = opTotal{Count: t.Count, Seconds: t.Total.Seconds()}
	}
	for _, sp := range tr.Snapshot() {
		if sp.Kind == telemetry.KindScope && sp.Scope == "" {
			kind, _, _ := strings.Cut(sp.Op, ":")
			p.Kernels[kind] += sp.Dur.Seconds()
		}
	}
	return p
}

// rotateMany rotates ciphertext c left by every amount in ks in one batch,
// hoisted where the backend can share work across the amounts.
func rotateMany(b chet.Backend, c any, ks []int) { hisa.RotLeftMany(b, c, ks) }

// nttMicros times one forward and one inverse NTT of a full-chain polynomial
// in the ring the compilation selected (median of reps).
func nttMicros(comp *chet.Compiled, reps int) (fwd, inv float64, err error) {
	params, err := core.RNSParameters(comp)
	if err != nil {
		return 0, 0, fmt.Errorf("ring parameters: %w", err)
	}
	r := params.Ring()
	level := r.MaxLevel()
	p := r.NewPoly(level)
	prng := ring.NewTestPRNG(1)
	for i, row := range p.Coeffs {
		for j := range row {
			row[j] = prng.Uint64() % r.Moduli[i].Q
		}
	}
	var f, b []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r.NTT(p, level)
		t1 := time.Now()
		r.InvNTT(p, level)
		t2 := time.Now()
		f = append(f, float64(t1.Sub(t0).Nanoseconds())/1e3)
		b = append(b, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	return medianOf(f), medianOf(b), nil
}

// wireCodec times encoding and decoding the batched request frame that would
// carry enc (median of reps) and returns the frame's payload size.
func wireCodec(enc *chet.CipherTensor, count, reps int) (encodeMS, decodeMS float64, bytes int, err error) {
	msg := &wire.InferBatchRequest{SessionID: 1, RequestID: 1, Count: uint32(count), Tensor: enc}
	var e, d []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		payload, err := msg.Encode()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("encoding request frame: %w", err)
		}
		t1 := time.Now()
		var back wire.InferBatchRequest
		if err := back.Decode(payload); err != nil {
			return 0, 0, 0, fmt.Errorf("decoding request frame: %w", err)
		}
		t2 := time.Now()
		e = append(e, t1.Sub(t0).Seconds()*1e3)
		d = append(d, t2.Sub(t1).Seconds()*1e3)
		bytes = len(payload)
	}
	return medianOf(e), medianOf(d), bytes, nil
}
