// Package serve implements the server side of CHET's encrypted-inference
// deployment model (Figure 3 of the paper) as a long-running engine: clients
// open sessions by uploading public evaluation keys once, then stream
// inference requests whose encrypted tensors are dispatched onto the
// worker-pool htc executor. The engine adds what a one-shot demo lacks —
// a bounded admission queue with backpressure, per-request deadlines, an
// LRU-capped session registry, graceful shutdown that drains in-flight
// work, and per-session/per-server metrics with HISA op counts.
//
// The wire format lives in internal/wire; only the RNS-CKKS scheme is
// servable, because the mock HEAAN backend has no transferable keys.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chet/internal/ckks"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
	"chet/internal/telemetry"
	"chet/internal/wire"
)

// Config parameterizes a Server. The zero value of every optional field
// selects the documented default.
type Config struct {
	// Compiled is the compiled circuit this server evaluates. Required;
	// must target core.SchemeRNS.
	Compiled *core.Compiled

	// MaxSessions caps the session registry; beyond it the least recently
	// used session is evicted and its client must re-open. Default 64.
	MaxSessions int
	// QueueDepth bounds the admission queue. A request arriving with the
	// queue full is rejected immediately with a queue-full error frame
	// (backpressure, not buffering). Default 64.
	QueueDepth int
	// RequestTimeout is the default per-request deadline (queue wait plus
	// evaluation); a request may tighten it via TimeoutMillis. Default 60s.
	RequestTimeout time.Duration
	// Workers is the htc worker-pool size each inference fans kernel work
	// across, and the number of goroutines one RNS instruction fans its
	// limbs across. Values <= 1 evaluate serially. Default 1.
	Workers int
	// Parallel is the number of inferences evaluated concurrently (the
	// executor pool draining the admission queue). Default 1.
	Parallel int
	// Trace wraps each session's backend in a telemetry.Tracer: /metrics
	// gains per-op duration series, every evaluation runs under a scope
	// named by the request's wire trace ID, and each dispatch is logged
	// with its trace ID and image count. With tracing on, evaluation scopes
	// also carry the request's wire trace context (trace ID + parent span),
	// queue waits are recorded as spans, and the worker answers trace-dump
	// frames with its merged span rings. Off by default (the tracer costs a
	// few percent and a bounded span ring per session).
	Trace bool
	// ProcessLabel names this worker in merged cross-process traces
	// (TraceDumpAck.Process). Empty lets the collector label the worker by
	// its address, which keeps multi-worker fleets distinguishable without
	// configuration.
	ProcessLabel string
	// Logger receives one record per notable event: listening, sessions
	// opened and handed off, and per request its dispatch, completion or
	// failure with a trace_id attribute that correlates the record with the
	// distributed trace. Dispatches are logged at Info with Trace set and at
	// Debug otherwise. Default discards.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Parallel < 1 {
		c.Parallel = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// frameMargin is the fixed allowance frameLimit adds over the model's own
// largest frames, covering message headers and the handoff envelope a router
// wraps a replayed session-open in.
const frameMargin = 64 << 10

// frameLimit is the frame cap of both protocol endpoints for a compiled
// model: the exact encoded size of the session-open a client of
// this compilation uploads (evaluation keys dominate), plus the largest
// tensor the circuit sends in either direction, plus frameMargin — and never
// more than wire.DefaultMaxFrame. A length prefix beyond it is refused from
// the header alone, so a peer cannot make the other side allocate more than
// the model legitimately needs.
func frameLimit(comp *core.Compiled, params *ckks.Parameters) int {
	open := wire.SessionOpenSize(comp.KeyConfig(params))

	// Requests carry the input tensor (its ciphertext count follows from the
	// layout); responses carry the output, at most one ciphertext per output
	// channel or feature.
	in := comp.Circuit.Input.OutShape
	meta := htc.NewLayout(comp.Plan(), in[0], in[1], in[2], params.Slots())
	cts := (in[0] + meta.CPerCT - 1) / meta.CPerCT
	cts = max(cts, comp.Circuit.Output.OutShape[0])
	limit := open + wire.CipherTensorSize(params, cts) + frameMargin
	return min(limit, wire.DefaultMaxFrame)
}

// job is one admitted inference request: a tensor carrying count images in
// its leading batch lanes, evaluated once.
type job struct {
	sess       *session
	tensor     *htc.CipherTensor
	count      int
	reqID      uint64
	traceID    uint64 // client-chosen correlation id (0 = none)
	parentSpan uint64 // upstream span (client call or router relay; 0 = none)
	arrived    time.Time
	deadline   time.Time
	respond    chan jobResult // buffered(1); run always sends exactly once
}

type jobResult struct {
	tensor *htc.CipherTensor
	errf   *wire.ErrorFrame
}

// Server is a concurrent encrypted-inference server for one compiled
// circuit. Create with New, run with Serve, stop with Shutdown.
type Server struct {
	cfg         Config
	params      *ckks.Parameters
	fingerprint [32]byte
	// wantMeta is the exact input-tensor geometry this compilation expects;
	// network tensors are checked against it field by field.
	wantMeta htc.CipherTensor

	// constants holds the program's encoded weights, masks and biases for
	// every session: plaintexts depend only on the parameters, not on a
	// client's keys.
	constants *htc.Constants

	// ep serves the protocol: listener, connections, draining flag, and a
	// frame loop per connection dispatching to the handle* methods.
	ep   *wire.Endpoint
	reg  *wire.SessionTable[*session]
	jobs chan *job
	quit chan struct{} // closed by Shutdown after the drain completes

	inflight  sync.WaitGroup // admitted jobs not yet responded
	inflightN atomic.Int64   // gauge twin of the WaitGroup, for health acks
	execWG    sync.WaitGroup // executor goroutines
	startExec sync.Once      // executors start on the first Serve

	// fleet is this worker's replica of the fleet-wide compiled-model
	// registry (seeded with the model this server itself serves and merged
	// with every registry-sync a router pushes).
	fleet     *wire.Registry
	selfEntry wire.RegistryEntry

	// Counters (atomic; see Metrics).
	requests, completed, evalErrors        atomic.Uint64
	rejQueueFull, rejDeadline, rejShutdown atomic.Uint64
	handoffs, probes, registrySyncs        atomic.Uint64
	latency                                *latencyRecorder
	queueWait                              *latencyRecorder
	evalLatency                            *latencyRecorder
	batchMu                                sync.Mutex
	batchSizes                             map[int]uint64

	// execHook, when non-nil, runs inside every evaluation; tests use it to
	// make execution observably slow without touching kernels.
	execHook func()
}

// New validates the configuration and builds a server. Executors start on
// the first Serve call.
func New(cfg Config) (*Server, error) {
	if cfg.Compiled == nil {
		return nil, errors.New("serve: Config.Compiled is required")
	}
	if cfg.Compiled.Options.Scheme != core.SchemeRNS {
		return nil, fmt.Errorf("serve: scheme %v is not servable (no transferable keys); compile for core.SchemeRNS",
			cfg.Compiled.Options.Scheme)
	}
	cfg.fillDefaults()
	params, err := core.RNSParameters(cfg.Compiled)
	if err != nil {
		return nil, err
	}
	in := cfg.Compiled.Circuit.Input.OutShape
	s := &Server{
		cfg:         cfg,
		params:      params,
		fingerprint: cfg.Compiled.Fingerprint(),
		wantMeta:    htc.NewLayout(cfg.Compiled.Plan(), in[0], in[1], in[2], params.Slots()),
		reg:         wire.NewSessionTable[*session](cfg.MaxSessions),
		constants:   htc.NewConstants(),
		jobs:        make(chan *job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		latency:     newLatencyRecorder(),
		queueWait:   newLatencyRecorder(),
		evalLatency: newLatencyRecorder(),
		batchSizes:  map[int]uint64{},
		fleet:       wire.NewRegistry(),
	}
	s.selfEntry = wire.RegistryEntry{
		Fingerprint: s.fingerprint,
		Model:       cfg.Compiled.Circuit.Name,
		LogN:        uint32(cfg.Compiled.Best.LogN),
		Batch:       uint32(cfg.Compiled.Best.Batch),
	}
	s.fleet.Merge([]wire.RegistryEntry{s.selfEntry})
	handlers := map[wire.MsgType]wire.Handler{
		wire.MsgSessionOpen:       s.handleSessionOpen,
		wire.MsgInferBatchRequest: s.handleInfer,
		wire.MsgHealthProbe:       s.handleHealthProbe,
		wire.MsgRegistrySync:      s.handleRegistrySync,
		wire.MsgSessionHandoff:    s.handleSessionHandoff,
		wire.MsgTraceDump:         s.handleTraceDump,
	}
	s.ep = wire.NewEndpoint(frameLimit(cfg.Compiled, params),
		func(*wire.Conn) (map[wire.MsgType]wire.Handler, func()) { return handlers, nil },
		s.refuseOversize)
	return s, nil
}

// Fingerprint returns the compiled-circuit fingerprint this server demands
// at session-open.
func (s *Server) Fingerprint() [32]byte { return s.fingerprint }

// Serve accepts connections on ln until Shutdown (or a listener error).
// It always returns a non-nil error; after a clean Shutdown the error is
// net.ErrClosed-wrapped and can be ignored.
func (s *Server) Serve(ln net.Listener) error {
	s.startExec.Do(func() {
		s.execWG.Add(s.cfg.Parallel)
		for i := 0; i < s.cfg.Parallel; i++ {
			go s.executor()
		}
	})
	s.cfg.Logger.Info("listening", "addr", ln.Addr().String(), "model", s.cfg.Compiled.Circuit.Name,
		"logn", s.cfg.Compiled.Best.LogN, "queue_depth", s.cfg.QueueDepth,
		"executors", s.cfg.Parallel, "workers", s.cfg.Workers)
	return s.ep.Serve(ln)
}

// Shutdown drains the server: new sessions and requests are rejected with
// shutting-down error frames, in-flight (queued or executing) requests run
// to completion and their responses are delivered, then connections close.
// If ctx expires first, remaining queued jobs are answered with
// shutting-down errors and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.ep.BeginDrain() {
		return nil
	}
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Stop executors. On the forced path they first answer whatever is
	// still queued with shutting-down errors so no handler blocks forever.
	close(s.quit)
	s.execWG.Wait()

	// A handler racing the drain could still admit one last job after the
	// executors exit; a reaper answers anything that slips through until
	// every handler has returned.
	reaperDone := make(chan struct{})
	go func() {
		for {
			select {
			case j := <-s.jobs:
				s.rejectShutdown(j)
			case <-reaperDone:
				return
			}
		}
	}()
	s.ep.CloseAll()
	close(reaperDone)
	s.cfg.Logger.Info("shutdown complete", "sessions", s.Metrics().SessionsOpened)
	return err
}

// Metrics snapshots server and per-session counters.
func (s *Server) Metrics() ServerMetrics {
	opened, evicted, active := s.reg.Stats()
	m := ServerMetrics{
		SessionsOpened:    opened,
		SessionsEvicted:   evicted,
		SessionsActive:    active,
		Requests:          s.requests.Load(),
		Completed:         s.completed.Load(),
		Errors:            s.evalErrors.Load(),
		RejectedQueueFull: s.rejQueueFull.Load(),
		RejectedDeadline:  s.rejDeadline.Load(),
		RejectedShutdown:  s.rejShutdown.Load(),
		Inflight:          s.inflightN.Load(),
		Handoffs:          s.handoffs.Load(),
		HealthProbes:      s.probes.Load(),
		RegistrySyncs:     s.registrySyncs.Load(),
		RegistryModels:    s.fleet.Size(),
		Latency:           s.latency.summary(),
		QueueWait:         s.queueWait.summary(),
		Evaluation:        s.evalLatency.summary(),
		BatchSizes:        map[int]uint64{},
	}
	m.ConstantPlaintexts, m.ConstantBytes = s.constants.Plaintexts(), s.constants.Bytes()
	m.Bootstraps, m.MinHeadroom, m.HeadroomKnown = s.budgetTelemetry()
	s.batchMu.Lock()
	for k, v := range s.batchSizes {
		m.BatchSizes[k] = v
	}
	s.batchMu.Unlock()
	for _, sess := range s.reg.Snapshot() {
		m.Sessions = append(m.Sessions, sess.metrics())
	}
	return m
}

// --- frame handlers ---

// refuseOversize answers a frame whose length prefix exceeds the limit,
// having read (and allocated) nothing of its payload. The limit is sized for
// this model's key set, so the usual sender of a larger session-open compiled
// something else — and the payload's leading 32 bytes, its fingerprint, say
// so; that case keeps its fingerprint-mismatch diagnosis. The payload the
// peer is still sending is then discarded for a few seconds, because closing
// on unread bytes resets the connection and can destroy the answer in
// flight.
func (s *Server) refuseOversize(c *wire.Conn, t wire.MsgType, cause error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var fp [32]byte
	if t == wire.MsgSessionOpen {
		if _, err := io.ReadFull(c, fp[:]); err == nil && fp != s.fingerprint {
			c.Fail(wire.CodeFingerprintMismatch, 0,
				"session-open: %v, and its fingerprint %x is not this server's %x; recompile with identical model and options",
				cause, fp[:8], s.fingerprint[:8])
			io.Copy(io.Discard, c)
			return
		}
	}
	c.Fail(wire.CodeBadMessage, 0, "%v", cause)
	io.Copy(io.Discard, c)
}

// handleSessionOpen validates keys and registers a session. Returns false
// when the connection is beyond use.
func (s *Server) handleSessionOpen(c *wire.Conn, payload []byte) bool {
	id, code, err := s.admitSession(payload)
	if err != nil {
		if code == wire.CodeShuttingDown {
			s.rejShutdown.Add(1)
		}
		return c.Fail(code, 0, "session-open: %v", err)
	}
	return c.Reply(wire.MsgSessionAccept, &wire.SessionAccept{SessionID: id})
}

// admitSession validates a session-open payload and registers the session,
// returning the new session ID. It is the shared admission path for direct
// client opens and router-driven handoffs (which replay a stored session-open
// payload); on failure the returned code classifies the rejection.
func (s *Server) admitSession(payload []byte) (uint64, wire.ErrorCode, error) {
	if s.ep.Draining() {
		return 0, wire.CodeShuttingDown, errors.New("server is draining")
	}
	var msg wire.SessionOpen
	if err := msg.Decode(payload); err != nil {
		return 0, wire.CodeBadMessage, err
	}
	if msg.Fingerprint != s.fingerprint {
		return 0, wire.CodeFingerprintMismatch, fmt.Errorf(
			"client compiled %x, server compiled %x; recompile with identical model and options",
			msg.Fingerprint[:8], s.fingerprint[:8])
	}
	keys := hisa.RNSPublicKeys{PK: msg.PK, RLK: msg.RLK, RTKS: msg.RTKS, Rotations: msg.Rotations}
	if err := hisa.ValidateRNSKeys(s.cfg.Compiled.KeyConfig(s.params), keys); err != nil {
		return 0, wire.CodeBadMessage, err
	}

	backend := hisa.NewRNSBackendFromKeys(s.params, keys, nil)
	// A bootstrap-compiled circuit evaluates through the refresh pipeline:
	// the session's backend gains a bootstrapper (built over the client's
	// shipped rotation keys, which NewClient provisions with the pipeline
	// amounts) and a Refresher realizing the compiler's placements.
	if bp := s.cfg.Compiled.BootPlan; bp != nil {
		if err := backend.EnableBootstrap(bp.Spec); err != nil {
			return 0, wire.CodeBadMessage, fmt.Errorf("enabling bootstrap: %w", err)
		}
	}
	slots := s.params.Slots()
	provisioned := make(map[int]bool, len(msg.Rotations))
	for _, k := range msg.Rotations {
		k = ((k % slots) + slots) % slots
		if k != 0 {
			provisioned[k] = true
		}
	}
	var inner hisa.Backend = backend
	var tracer *telemetry.Tracer
	if s.cfg.Trace {
		tracer = telemetry.NewTracer(backend, telemetry.Config{})
		inner = tracer
	}
	meter := hisa.NewMeter(inner, func(x int) int {
		return len(hisa.RotationSteps(x, slots, func(k int) bool { return provisioned[k] }))
	})
	var top hisa.Backend = meter
	var refresher *hisa.Refresher
	if bp := s.cfg.Compiled.BootPlan; bp != nil {
		rf, err := hisa.NewRefresher(meter, bp.Floor)
		if err != nil {
			return 0, wire.CodeInternal, fmt.Errorf("wrapping refresher: %w", err)
		}
		refresher, top = rf, rf
	}
	sess := s.reg.Add(func(id uint64) *session {
		return &session{id: id, backend: top, meter: meter, tracer: tracer, refresher: refresher, latency: newLatencyRecorder()}
	})
	s.cfg.Logger.Info("session opened", "session", sess.id, "rotation_keys", len(msg.RTKS.Keys))
	return sess.id, 0, nil
}

// handleHealthProbe answers a router's liveness probe with this worker's
// status. Probes are answered even while draining — Draining=true is exactly
// what tells the router to stop routing here while the drain completes.
func (s *Server) handleHealthProbe(c *wire.Conn, payload []byte) bool {
	var msg wire.HealthProbe
	if err := msg.Decode(payload); err != nil {
		return c.Fail(wire.CodeBadMessage, 0, "health-probe: %v", err)
	}
	s.probes.Add(1)
	_, _, active := s.reg.Stats()
	boots, headroom, known := s.budgetTelemetry()
	ack := &wire.HealthAck{
		Nonce:          msg.Nonce,
		Fingerprint:    s.fingerprint,
		ActiveSessions: uint32(active),
		Inflight:       uint32(min(s.inflightN.Load(), int64(^uint32(0)))),
		Draining:       s.ep.Draining(),
		Bootstraps:     boots,
		MinHeadroom:    headroom,
		HeadroomKnown:  known,
	}
	return c.Reply(wire.MsgHealthAck, ack)
}

// budgetTelemetry aggregates the live sessions' ciphertext-budget state:
// the cumulative bootstrap tally and the fleet-reportable low-water mark of
// levels above the refresh floor (known only once some session has run a
// multiplicative op).
func (s *Server) budgetTelemetry() (bootstraps uint64, minHeadroom int64, known bool) {
	minHeadroom = math.MaxInt64
	for _, sess := range s.reg.Snapshot() {
		if sess.refresher == nil {
			continue
		}
		bootstraps += uint64(sess.refresher.Bootstraps())
		if h, ok := sess.refresher.MinHeadroom(); ok {
			known = true
			if int64(h) < minHeadroom {
				minHeadroom = int64(h)
			}
		}
	}
	if !known {
		minHeadroom = 0
	}
	return bootstraps, minHeadroom, known
}

// handleTraceDump answers a trace-dump frame with this worker's retained
// spans: every traced session's ring, rebased onto one worker-wide epoch
// (the earliest session epoch) so the collector can merge workers onto a
// single timeline. An untraced server answers with an empty ring rather
// than an error — collection must not depend on configuration agreement.
func (s *Server) handleTraceDump(c *wire.Conn, payload []byte) bool {
	var msg wire.TraceDump
	if err := msg.Decode(payload); err != nil {
		return c.Fail(wire.CodeBadMessage, 0, "trace-dump: %v", err)
	}
	sessions := s.reg.Snapshot()
	var base time.Time
	for _, sess := range sessions {
		if sess.tracer == nil {
			continue
		}
		if e := sess.tracer.Epoch(); base.IsZero() || e.Before(base) {
			base = e
		}
	}
	var spans []telemetry.Span
	for _, sess := range sessions {
		if sess.tracer == nil {
			continue
		}
		shift := sess.tracer.Epoch().Sub(base)
		for _, sp := range telemetry.FilterTrace(sess.tracer.Snapshot(), msg.TraceID) {
			sp.Start += shift
			spans = append(spans, sp)
		}
	}
	// The wire codec caps a dump at 1<<17 spans; keep the newest if the
	// combined session rings exceed it (older spans wrapped anyway).
	const dumpCap = 1 << 17
	if len(spans) > dumpCap {
		spans = spans[len(spans)-dumpCap:]
	}
	if base.IsZero() {
		base = time.Now()
	}
	return c.Reply(wire.MsgTraceDumpAck,
		&wire.TraceDumpAck{Process: s.cfg.ProcessLabel, EpochUnixNano: base.UnixNano(), Spans: spans})
}

// handleRegistrySync merges the router's pushed registry view into this
// worker's replica and acks with the merged set (which always includes the
// model this worker itself serves), so a restarted router can rebuild the
// fleet-wide registry from any single worker.
func (s *Server) handleRegistrySync(c *wire.Conn, payload []byte) bool {
	var msg wire.RegistrySync
	if err := msg.Decode(payload); err != nil {
		return c.Fail(wire.CodeBadMessage, 0, "registry-sync: %v", err)
	}
	s.registrySyncs.Add(1)
	s.fleet.Merge(msg.Entries)
	return c.Reply(wire.MsgRegistrySyncAck, &wire.RegistrySyncAck{Entries: s.fleet.Snapshot()})
}

// handleSessionHandoff replays a router-stored session-open payload through
// the ordinary admission path and acks with the worker-local session ID the
// router must quote on relayed requests.
func (s *Server) handleSessionHandoff(c *wire.Conn, payload []byte) bool {
	var msg wire.SessionHandoff
	if err := msg.Decode(payload); err != nil {
		return c.Fail(wire.CodeBadMessage, 0, "session-handoff: %v", err)
	}
	id, code, err := s.admitSession(msg.Open)
	if err != nil {
		if code == wire.CodeShuttingDown {
			s.rejShutdown.Add(1)
		}
		return c.Fail(code, msg.RouterSessionID, "session-handoff: %v", err)
	}
	s.handoffs.Add(1)
	s.cfg.Logger.Info("session admitted via handoff", "session", id, "router_session", msg.RouterSessionID)
	return c.Reply(wire.MsgSessionHandoffAck, &wire.SessionHandoffAck{RouterSessionID: msg.RouterSessionID, WorkerSessionID: id})
}

// admitOne/doneOne track admitted-but-unanswered requests twice over: the
// WaitGroup gates graceful shutdown, the atomic gauge feeds health acks and
// /metrics (a WaitGroup cannot be read without racing it).
func (s *Server) admitOne() {
	s.inflight.Add(1)
	s.inflightN.Add(1)
}

func (s *Server) doneOne() {
	s.inflightN.Add(-1)
	s.inflight.Done()
}

// newJob builds an admitted job with the effective deadline.
func (s *Server) newJob(sess *session, msg *wire.InferBatchRequest) *job {
	timeout := s.cfg.RequestTimeout
	if msg.TimeoutMillis != 0 {
		if t := time.Duration(msg.TimeoutMillis) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	now := time.Now()
	return &job{
		sess:       sess,
		tensor:     msg.Tensor,
		count:      int(msg.Count),
		reqID:      msg.RequestID,
		traceID:    msg.TraceID,
		parentSpan: msg.ParentSpan,
		arrived:    now,
		deadline:   now.Add(timeout),
		respond:    make(chan jobResult, 1),
	}
}

// handleInfer admits a request (one tensor, Count client-packed images in its
// leading lanes) to the queue and relays its result. Returns false when the
// connection is beyond use.
func (s *Server) handleInfer(c *wire.Conn, payload []byte) bool {
	var msg wire.InferBatchRequest
	if err := msg.Decode(payload); err != nil {
		return c.Fail(wire.CodeBadMessage, 0, "infer-batch-request: %v", err)
	}
	if s.ep.Draining() {
		s.rejShutdown.Add(1)
		return c.Fail(wire.CodeShuttingDown, msg.RequestID, "server is draining")
	}
	sess, ok := s.reg.Get(msg.SessionID)
	if !ok {
		return c.Fail(wire.CodeUnknownSession, msg.RequestID,
			"session %d unknown or evicted; re-open", msg.SessionID)
	}
	if err := s.checkTensor(msg.Tensor); err != nil {
		sess.errors.Add(1)
		return c.Fail(wire.CodeBadMessage, msg.RequestID, "infer-batch-request: %v", err)
	}
	if int(msg.Count) > s.wantMeta.B {
		sess.errors.Add(1)
		return c.Fail(wire.CodeBadMessage, msg.RequestID,
			"batch count %d exceeds compiled capacity %d", msg.Count, s.wantMeta.B)
	}

	// Admission: the queue never blocks the handler. Full queue means the
	// server is saturated past its configured buffer — reject now so the
	// client can back off, rather than letting latency grow unboundedly.
	// The inflight count is held by this handler until the response hits
	// the wire, so a graceful Shutdown never cuts a connection mid-reply.
	j := s.newJob(sess, &msg)
	s.admitOne()
	select {
	case s.jobs <- j:
		s.requests.Add(1)
		sess.requests.Add(1)
	default:
		s.doneOne()
		s.rejQueueFull.Add(1)
		return c.Fail(wire.CodeQueueFull, msg.RequestID,
			"admission queue full (%d deep); retry with backoff", s.cfg.QueueDepth)
	}

	var wrote bool
	if res := <-j.respond; res.errf != nil {
		wrote = c.Fail(res.errf.Code, msg.RequestID, "%s", res.errf.Message)
	} else {
		wrote = c.Reply(wire.MsgInferBatchResponse, &wire.InferBatchResponse{
			RequestID: msg.RequestID, TraceID: msg.TraceID, Count: msg.Count, Tensor: res.tensor})
	}
	s.doneOne()
	return wrote
}

// checkTensor validates a network-received tensor against this server's
// parameters before any kernel touches it. Geometry must match the compiled
// input layout exactly: the kernels derive every rotation amount and mask
// from it, so a "close enough" layout would compute garbage for every image
// packed in the tensor.
func (s *Server) checkTensor(ct *htc.CipherTensor) error {
	if ct == nil {
		return errors.New("missing tensor")
	}
	slots := s.params.Slots()
	if err := ct.Validate(slots); err != nil {
		return err
	}
	w := &s.wantMeta
	if ct.Layout != w.Layout || ct.C != w.C || ct.H != w.H || ct.W != w.W ||
		ct.Offset != w.Offset || ct.RowStride != w.RowStride ||
		ct.ColStride != w.ColStride || ct.ChanStride != w.ChanStride ||
		ct.CPerCT != w.CPerCT || ct.B != w.B || ct.BatchStride != w.BatchStride || ct.Complex != w.Complex {
		return fmt.Errorf("tensor geometry %dx%dx%d (offset %d, strides %d/%d/%d, batch %dx%d, complex %t) does not match the compiled input layout %dx%dx%d (offset %d, strides %d/%d/%d, batch %dx%d, complex %t)",
			ct.C, ct.H, ct.W, ct.Offset, ct.RowStride, ct.ColStride, ct.ChanStride, ct.B, ct.BatchStride, ct.Complex,
			w.C, w.H, w.W, w.Offset, w.RowStride, w.ColStride, w.ChanStride, w.B, w.BatchStride, w.Complex)
	}
	n := s.params.N()
	maxLvl := s.params.MaxLevel()
	wantScale := s.cfg.Compiled.Options.Scales.Pc
	for i, c := range ct.CTs {
		cc, ok := c.(*ckks.Ciphertext)
		if !ok {
			return fmt.Errorf("ciphertext %d has foreign type %T", i, c)
		}
		// Inputs are fresh encryptions: full level and the compiled input
		// scale. Both are cleartext metadata a poisoned request could lie
		// about; admitting either lie would feed the circuit silent garbage
		// rather than a detectable failure. The scale must match exactly:
		// encoding sets it bit for bit and the wire carries the float64, and
		// every distinct input scale would add bias plaintexts to the
		// server's shared constant store.
		if cc.Lvl != maxLvl {
			return fmt.Errorf("ciphertext %d at level %d, fresh inputs are at level %d", i, cc.Lvl, maxLvl)
		}
		if cc.Scale != wantScale {
			return fmt.Errorf("ciphertext %d at scale %g, compiled input scale is %g", i, cc.Scale, wantScale)
		}
		for _, p := range []*htcPoly{{cc.C0, "c0"}, {cc.C1, "c1"}} {
			if p.p == nil || len(p.p.Coeffs) != cc.Lvl+1 {
				return fmt.Errorf("ciphertext %d %s has wrong RNS row count", i, p.name)
			}
			for _, row := range p.p.Coeffs {
				if len(row) != n {
					return fmt.Errorf("ciphertext %d %s row length %d, ring degree %d", i, p.name, len(row), n)
				}
			}
		}
	}
	return nil
}

// --- execution ---

// executor drains the admission queue. After quit it answers any remaining
// queued requests with shutting-down errors (forced-shutdown path) and exits.
func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		select {
		case j := <-s.jobs:
			s.run(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.jobs:
					s.rejectShutdown(j)
				default:
					return
				}
			}
		}
	}
}

// rejectShutdown answers a queued request with a shutting-down error frame.
func (s *Server) rejectShutdown(j *job) {
	s.rejShutdown.Add(1)
	j.respond <- jobResult{errf: &wire.ErrorFrame{
		Code: wire.CodeShuttingDown, RequestID: j.reqID,
		Message: "server shut down before the request ran"}}
}

// run evaluates one admitted request, enforcing its deadline at the two
// points the engine controls: before starting (queue expiry) and after
// finishing (evaluation overrun). A homomorphic evaluation cannot be
// preempted mid-circuit, so an overrunning result is discarded rather than
// returned late.
func (s *Server) run(j *job) {
	now := time.Now()
	if !now.Before(j.deadline) {
		s.rejDeadline.Add(1)
		j.sess.errors.Add(1)
		j.respond <- jobResult{errf: &wire.ErrorFrame{
			Code: wire.CodeDeadlineExceeded, RequestID: j.reqID,
			Message: fmt.Sprintf("deadline expired after %v in queue", time.Since(j.arrived).Round(time.Millisecond))}}
		return
	}
	s.queueWait.record(now.Sub(j.arrived))
	// The queue-wait span attaches under the request's upstream span (client
	// call or router relay), so the merged trace shows time spent queued
	// apart from time spent evaluating.
	if j.sess.tracer != nil {
		j.sess.tracer.RecordManual(telemetry.KindOp, "queue-wait",
			j.arrived, now.Sub(j.arrived), j.traceID, 0, j.parentSpan)
	}
	s.batchMu.Lock()
	s.batchSizes[j.count]++
	s.batchMu.Unlock()

	label := fmt.Sprintf("infer trace=%016x", j.traceID)
	level := slog.LevelDebug
	if s.cfg.Trace {
		level = slog.LevelInfo
	}
	s.cfg.Logger.Log(context.Background(), level, "dispatch",
		"trace_id", fmt.Sprintf("%016x", j.traceID), "session", j.sess.id, "images", j.count)
	start := time.Now()
	out, err := s.evaluate(j.sess, j.tensor, label, j.traceID, j.parentSpan)
	s.evalLatency.record(time.Since(start))
	s.finish(j, out, err)
}

// finish delivers one request's result, applying the post-evaluation
// deadline check and recording completion metrics.
func (s *Server) finish(j *job, out *htc.CipherTensor, err error) {
	switch {
	case err != nil:
		s.evalErrors.Add(1)
		j.sess.errors.Add(1)
		s.cfg.Logger.Warn("evaluation failed",
			"trace_id", fmt.Sprintf("%016x", j.traceID), "request", j.reqID, "err", err.Error())
		j.respond <- jobResult{errf: &wire.ErrorFrame{
			Code: wire.CodeInternal, RequestID: j.reqID, Message: err.Error()}}
	case !time.Now().Before(j.deadline):
		s.rejDeadline.Add(1)
		j.sess.errors.Add(1)
		j.respond <- jobResult{errf: &wire.ErrorFrame{
			Code: wire.CodeDeadlineExceeded, RequestID: j.reqID,
			Message: fmt.Sprintf("evaluation finished %v past the deadline", time.Since(j.deadline).Round(time.Millisecond))}}
	default:
		d := time.Since(j.arrived)
		s.completed.Add(1)
		s.latency.record(d)
		j.sess.latency.record(d)
		s.cfg.Logger.Debug("completed",
			"trace_id", fmt.Sprintf("%016x", j.traceID), "request", j.reqID,
			"images", j.count, "dur", d.Round(time.Microsecond))
		j.respond <- jobResult{tensor: out}
	}
}

// evaluate runs the compiled circuit on the session's backend, converting
// kernel panics (the trusted-path failure mode for inconsistent data) into
// errors: a hostile request must never take the server down.
func (s *Server) evaluate(sess *session, in *htc.CipherTensor, label string, traceID, parent uint64) (out *htc.CipherTensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluation failed: %v", r)
		}
	}()
	if sess.tracer != nil {
		// The request-level scope, carrying the wire trace context so every
		// span recorded under it (ops, bootstrap stages, nested scopes)
		// joins the distributed trace under the upstream relay span. The
		// executor nests one scope per circuit node under it. Closed via
		// defer so a recovered kernel panic still unwinds the span.
		closeScope, _ := sess.tracer.StartScopeCtx(label, traceID, parent)
		defer closeScope()
	}
	// A bootstrap-compiled circuit starts at the compiler's fresh level:
	// clients send full-level encryptions (checkTensor demands them), so the
	// inputs are dropped exactly as Refresher.Encrypt drops local ones. The
	// dropped copies are Refresher-owned intermediates, freed after the run.
	if sess.refresher != nil {
		fresh := *in
		fresh.CTs = make([]hisa.Ciphertext, len(in.CTs))
		for i, c := range in.CTs {
			fresh.CTs[i] = sess.refresher.DropToFresh(c)
		}
		defer func() {
			for _, c := range fresh.CTs {
				sess.backend.Free(c)
			}
		}()
		in = &fresh
	}
	if s.execHook != nil {
		s.execHook()
	}
	comp := s.cfg.Compiled
	out = htc.Execute(sess.backend, comp.Circuit, in, comp.Best.Policy,
		comp.Options.Scales, htc.ExecOptions{Workers: s.cfg.Workers, Constants: s.constants})
	return out, nil
}

// htcPoly pairs a polynomial with its name for checkTensor diagnostics.
type htcPoly struct {
	p    *ring.Poly
	name string
}
