package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chet/internal/telemetry"
	"chet/internal/wire"
)

// Config parameterizes a Router. The zero value of every optional field
// selects the documented default.
type Config struct {
	// Workers are the chet-serve worker addresses this router balances
	// across. Required, at least one. The set is fixed for the router's
	// lifetime; health probes move members in and out of the live ring.
	Workers []string
	// Replicas is the consistent-hash vnode count per worker.
	// Default DefaultReplicas.
	Replicas int
	// MaxSessions caps the router's session table (stored session-open
	// payloads are the dominant memory cost — they hold the eval keys).
	// Beyond it the least recently used session is evicted and its client
	// re-opens, exactly like the worker-side registry. Default 256.
	MaxSessions int
	// ProbeInterval is the health-probe cadence per worker. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange (dial, probe, ack, registry
	// sync). Default 2s.
	ProbeTimeout time.Duration
	// ProbeFailures is how many consecutive probe failures remove a worker
	// from the ring. A worker that answers a probe with Draining, or fails
	// a relay outright, is removed immediately — the threshold only guards
	// against one flaky probe evicting a healthy worker. Default 3.
	ProbeFailures int
	// RelayAttempts bounds how many workers one request may be tried
	// against before the client sees an error. Default 3.
	RelayAttempts int
	// Logger receives one record per notable router event — ring changes,
	// registry growth, session placements — and, at Debug, one per relayed
	// request, with trace_id attributes so log lines join the distributed
	// trace the span ring records. Default discards.
	Logger *slog.Logger
}

// dialTimeout bounds the router's dials to workers outside the probe loop.
const dialTimeout = 5 * time.Second

func (c *Config) fillDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeFailures == 0 {
		c.ProbeFailures = 3
	}
	if c.RelayAttempts == 0 {
		c.RelayAttempts = 3
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// workerState is the router's view of one configured worker.
type workerState struct {
	addr     string
	up       atomic.Bool
	draining atomic.Bool
	inflight atomic.Int64  // requests currently relayed to this worker
	relayed  atomic.Uint64 // responses delivered from this worker
	handoffs atomic.Uint64 // sessions handed to this worker

	// Budget telemetry scraped from health acks: the worker's cumulative
	// bootstrap-refresh tally and its remaining-levels low-water mark
	// (headroomKnown false until the worker reports one).
	bootstraps    atomic.Uint64
	minHeadroom   atomic.Int64
	headroomKnown atomic.Bool

	// Probe-loop-private state (single goroutine, no locking).
	failures  int
	nonce     uint64
	probeConn net.Conn
}

// routerSession is one client session as the router tracks it: the stored
// session-open payload (fingerprint + eval keys, replayed on every owner
// change) and the current placement.
type routerSession struct {
	id   uint64
	open []byte

	// mu serializes placement: concurrent streams of one session agree on
	// one handoff instead of racing duplicates.
	mu       sync.Mutex
	owner    string // worker currently holding the keys; "" before placement
	workerID uint64 // session ID on owner; 0 forces a (re)handoff
}

// invalidate clears a placement the fleet proved stale (worker evicted the
// session or went down), but only if it has not already been replaced.
func (s *routerSession) invalidate(workerID uint64) {
	s.mu.Lock()
	if s.workerID == workerID {
		s.workerID = 0
	}
	s.mu.Unlock()
}

// Router is the fleet's front door: it accepts ordinary wire-protocol client
// connections, places each session on a worker via the consistent-hash ring,
// relays inference requests to the session's owner, and heals around worker
// failure by replaying the session's eval keys to a surviving worker.
// Create with New, run with Serve, stop with Shutdown.
type Router struct {
	cfg        Config
	ring       *Ring
	registry   *wire.Registry
	workers    map[string]*workerState
	workerList []*workerState // stable iteration order (config order)
	sessions   *wire.SessionTable[*routerSession]
	// spans retains the router's side of every traced request: admission,
	// handoff, failover, and relay spans, stitched to client and worker
	// spans by trace ID (see CollectTrace).
	spans *telemetry.SpanRing
	// ep serves client connections: a frame loop per connection dispatching
	// to a relayHandler; its error-frame count is ClientErrors.
	ep *wire.Endpoint

	relayWG    sync.WaitGroup // client requests being relayed
	probeWG    sync.WaitGroup
	probeQuit  chan struct{}
	startProbe sync.Once // the probe loop starts on the first Serve

	relays, failovers, handoffs  atomic.Uint64
	rebalances, probeFails       atomic.Uint64
	rejShutdown                  atomic.Uint64
	registryAdds, unknownSession atomic.Uint64
}

// New validates the configuration and builds a router. All configured
// workers start on the ring optimistically; the probe loop (started by
// Serve) removes any that turn out to be dead within ProbeFailures probes.
func New(cfg Config) (*Router, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: Config.Workers is required")
	}
	cfg.fillDefaults()
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(cfg.Replicas),
		registry:  wire.NewRegistry(),
		workers:   map[string]*workerState{},
		sessions:  wire.NewSessionTable[*routerSession](cfg.MaxSessions),
		spans:     telemetry.NewSpanRing(0),
		probeQuit: make(chan struct{}),
	}
	r.ep = wire.NewEndpoint(wire.DefaultMaxFrame, r.routes, nil)
	for _, addr := range cfg.Workers {
		if _, dup := r.workers[addr]; dup {
			return nil, fmt.Errorf("fleet: worker %s configured twice", addr)
		}
		w := &workerState{addr: addr}
		w.up.Store(true)
		r.workers[addr] = w
		r.workerList = append(r.workerList, w)
		r.ring.Add(addr)
	}
	return r, nil
}

// Serve accepts client connections on ln until Shutdown (or a listener
// error). It always returns a non-nil error; after a clean Shutdown the
// error wraps net.ErrClosed and can be ignored.
func (r *Router) Serve(ln net.Listener) error {
	r.startProbe.Do(func() {
		r.probeWG.Add(1)
		go r.probeLoop()
	})
	r.cfg.Logger.Info("router listening", "addr", ln.Addr().String(),
		"workers", len(r.workerList), "vnodes", r.cfg.Replicas)
	return r.ep.Serve(ln)
}

// Shutdown drains the router: new connections and requests are rejected,
// requests already being relayed run to completion and their responses are
// delivered, then client connections close and the probe loop stops. If ctx
// expires first, remaining work is abandoned and ctx.Err() returned.
func (r *Router) Shutdown(ctx context.Context) error {
	if !r.ep.BeginDrain() {
		return nil
	}
	drained := make(chan struct{})
	go func() {
		r.relayWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	r.ep.CloseAll()
	close(r.probeQuit)
	r.probeWG.Wait()
	r.cfg.Logger.Info("router shutdown complete", "sessions", r.Metrics().SessionsOpened)
	return err
}

// markDown removes a worker from the live ring (idempotent).
func (r *Router) markDown(addr string, cause error) {
	w := r.workers[addr]
	if w == nil {
		return
	}
	if w.up.CompareAndSwap(true, false) {
		r.ring.Remove(addr)
		r.rebalances.Add(1)
		r.cfg.Logger.Info("worker removed from ring", "worker", addr, "err", cause.Error())
	}
}

// markUp readmits a worker to the live ring (idempotent).
func (r *Router) markUp(addr string) {
	w := r.workers[addr]
	if w == nil {
		return
	}
	if w.up.CompareAndSwap(false, true) {
		r.ring.Add(addr)
		r.rebalances.Add(1)
		r.cfg.Logger.Info("worker readmitted to ring", "worker", addr)
	}
}

// --- health probing and registry replication ---

func (r *Router) probeLoop() {
	defer func() {
		for _, w := range r.workerList {
			if w.probeConn != nil {
				w.probeConn.Close()
				w.probeConn = nil
			}
		}
		r.probeWG.Done()
	}()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.probeQuit:
			return
		case <-tick.C:
		}
		for _, w := range r.workerList {
			select {
			case <-r.probeQuit:
				return
			default:
			}
			r.probe(w)
		}
	}
}

// probe runs one health exchange against a worker: probe/ack, then a
// registry sync over the same connection. The sync doubles as replication
// (workers receive the merged view) and bootstrap (a freshly started router
// learns the fleet's models from the first worker that acks).
func (r *Router) probe(w *workerState) {
	c := w.probeConn
	if c == nil {
		var err error
		c, err = net.DialTimeout("tcp", w.addr, r.cfg.ProbeTimeout)
		if err != nil {
			r.probeFailed(w, err)
			return
		}
		w.probeConn = c
	}
	c.SetDeadline(time.Now().Add(r.cfg.ProbeTimeout))
	w.nonce++
	fail := func(err error) {
		c.Close()
		w.probeConn = nil
		r.probeFailed(w, err)
	}
	var ack wire.HealthAck
	err := wire.Call(c, wire.DefaultMaxFrame, wire.MsgHealthProbe, &wire.HealthProbe{Nonce: w.nonce}, wire.MsgHealthAck, &ack)
	if err == nil && ack.Nonce != w.nonce {
		err = fmt.Errorf("probe ack nonce %d, sent %d", ack.Nonce, w.nonce)
	}
	if err != nil {
		fail(err)
		return
	}
	w.failures = 0
	w.draining.Store(ack.Draining)
	w.bootstraps.Store(ack.Bootstraps)
	if ack.HeadroomKnown {
		w.minHeadroom.Store(ack.MinHeadroom)
		w.headroomKnown.Store(true)
	}
	if ack.Draining {
		// Definitive word from the worker itself — no failure threshold.
		r.markDown(w.addr, errors.New("worker reports draining"))
		return
	}

	var sack wire.RegistrySyncAck
	if err := wire.Call(c, wire.DefaultMaxFrame, wire.MsgRegistrySync, &wire.RegistrySync{Entries: r.registry.Snapshot()},
		wire.MsgRegistrySyncAck, &sack); err != nil {
		fail(err)
		return
	}
	if added := r.registry.Merge(sack.Entries); added > 0 {
		r.registryAdds.Add(uint64(added))
		r.cfg.Logger.Info("learned model(s)", "added", added, "worker", w.addr, "registry", r.registry.Size())
	}
	c.SetDeadline(time.Time{})
	r.markUp(w.addr)
}

func (r *Router) probeFailed(w *workerState, err error) {
	r.probeFails.Add(1)
	w.failures++
	if w.failures >= r.cfg.ProbeFailures {
		r.markDown(w.addr, fmt.Errorf("%d consecutive probe failures, last: %w", w.failures, err))
	}
}

// --- client connection handling ---

// Fixed offsets of the mutable header fields of an InferBatchRequest payload
// (sess u64, req u64, trace u64, parent u64, timeout u32). The router
// rewrites the session ID (router-scoped to worker-scoped), the parent span
// (its own relay span interposes between the client's span and the
// worker's), and the timeout (remaining budget on retry) in place, and never
// decodes the ciphertexts that follow.
const (
	offSessionID = 0
	offRequestID = 8
	offTraceID   = 16
	offParent    = 24
	offTimeout   = 32
	inferHdrLen  = 36
)

// relayHandler serves one client connection. Upstream connections are
// per-handler, opened lazily: each handler processes client frames strictly
// in order and is the only user of its upstream conns, so request/response
// pairs never interleave. Worker sessions are keyed by ID, not connection,
// so many handlers can quote the same worker session concurrently.
type relayHandler struct {
	r        *Router
	upstream map[string]net.Conn
}

// routes opens one client connection: its relayHandler serves the two frame
// types a client sends and closes its upstream connections when the client's
// ends.
func (r *Router) routes(*wire.Conn) (map[wire.MsgType]wire.Handler, func()) {
	h := &relayHandler{r: r, upstream: map[string]net.Conn{}}
	return map[wire.MsgType]wire.Handler{
		wire.MsgSessionOpen:       h.handleOpen,
		wire.MsgInferBatchRequest: h.handleInfer,
	}, h.close
}

// close drops every upstream connection of this handler.
func (h *relayHandler) close() {
	for _, c := range h.upstream {
		c.Close()
	}
}

// conn returns this handler's connection to a worker, dialing if needed.
func (h *relayHandler) conn(addr string) (net.Conn, error) {
	if c, ok := h.upstream[addr]; ok {
		return c, nil
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	h.upstream[addr] = c
	return c, nil
}

// drop discards this handler's cached connection to a worker.
func (h *relayHandler) drop(addr string) {
	if c, ok := h.upstream[addr]; ok {
		c.Close()
		delete(h.upstream, addr)
	}
}

// handoff ensures sess is placed on owner, replaying its stored session-open
// payload if the owner changed (or never had it). Returns the worker-local
// session ID; a non-nil *wire.ErrorFrame is the worker's typed refusal and a
// non-nil error a transport failure. When a replay actually happens it is
// recorded as a "handoff" span under the caller's trace context (traceID 0
// for placements outside any traced request).
func (h *relayHandler) handoff(sess *routerSession, owner string, traceID, parent uint64) (uint64, *wire.ErrorFrame, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.owner == owner && sess.workerID != 0 {
		return sess.workerID, nil, nil
	}
	start := time.Now()
	defer func() {
		h.r.spans.Record(telemetry.KindScope, "handoff:"+owner, start, time.Now(),
			traceID, telemetry.NewSpanID(), parent)
	}()
	c, err := h.conn(owner)
	if err != nil {
		return 0, nil, err
	}
	var ack wire.SessionHandoffAck
	err = wire.Call(c, wire.DefaultMaxFrame, wire.MsgSessionHandoff, &wire.SessionHandoff{RouterSessionID: sess.id, Open: sess.open},
		wire.MsgSessionHandoffAck, &ack)
	var ef *wire.ErrorFrame
	if errors.As(err, &ef) {
		return 0, ef, nil
	}
	if err == nil && ack.RouterSessionID != sess.id {
		err = fmt.Errorf("handoff ack for session %d, sent %d", ack.RouterSessionID, sess.id)
	}
	if err != nil {
		h.drop(owner)
		return 0, nil, err
	}
	sess.owner, sess.workerID = owner, ack.WorkerSessionID
	h.r.handoffs.Add(1)
	if w := h.r.workers[owner]; w != nil {
		w.handoffs.Add(1)
	}
	return ack.WorkerSessionID, nil, nil
}

// handleOpen admits a client session: it peeks the compiled-circuit
// fingerprint (first 32 payload bytes) without decoding the keys, stores the
// raw payload for later replays, and places the session on its ring owner
// before accepting — the client's accept means the keys are on a worker.
func (h *relayHandler) handleOpen(c *wire.Conn, payload []byte) bool {
	r := h.r
	if r.ep.Draining() {
		r.rejShutdown.Add(1)
		return c.Fail(wire.CodeShuttingDown, 0, "router is draining")
	}
	if len(payload) < 32 {
		return c.Fail(wire.CodeBadMessage, 0, "session-open payload of %d bytes has no fingerprint", len(payload))
	}
	var fp [32]byte
	copy(fp[:], payload[:32])
	if r.registry.Size() > 0 && !r.registry.Has(fp) {
		return c.Fail(wire.CodeFingerprintMismatch, 0,
			"no worker serves compilation %x (registry holds %d model(s)); recompile against a served model",
			fp[:8], r.registry.Size())
	}
	sess := r.sessions.Add(func(id uint64) *routerSession { return &routerSession{id: id, open: payload} })

	// Session opens carry no trace ID (tracing is per-request); the
	// admission span anchors the session's placement work under trace 0.
	admitStart := time.Now()
	admitSpan := telemetry.NewSpanID()
	defer func() {
		r.spans.Record(telemetry.KindScope, "admission", admitStart, time.Now(), 0, admitSpan, 0)
	}()

	var lastErr error
	for attempt := 0; attempt < r.cfg.RelayAttempts; attempt++ {
		placeStart := time.Now()
		owner, ok := r.ring.Owner(sess.id)
		if !ok {
			lastErr = errors.New("no live workers on the ring")
			break
		}
		r.spans.Record(telemetry.KindOp, "placement:"+owner, placeStart, time.Now(), 0, telemetry.NewSpanID(), admitSpan)
		_, errf, err := h.handoff(sess, owner, 0, admitSpan)
		if err != nil {
			r.markDown(owner, err)
			r.failovers.Add(1)
			r.spans.Record(telemetry.KindOp, "failover:"+owner, placeStart, time.Now(), 0, telemetry.NewSpanID(), admitSpan)
			lastErr = err
			continue
		}
		if errf != nil {
			if errf.Code == wire.CodeShuttingDown {
				r.markDown(owner, errors.New(errf.Message))
				r.failovers.Add(1)
				r.spans.Record(telemetry.KindOp, "failover:"+owner, placeStart, time.Now(), 0, telemetry.NewSpanID(), admitSpan)
				lastErr = errf
				continue
			}
			// A typed refusal (bad keys, fingerprint mismatch) is the
			// session's real answer; placement elsewhere cannot help.
			r.sessions.Remove(sess.id)
			return c.Fail(errf.Code, 0, "%s", errf.Message)
		}
		r.cfg.Logger.Info("session placed", "session", sess.id, "worker", owner,
			"attempts", attempt+1)
		return c.Reply(wire.MsgSessionAccept, &wire.SessionAccept{SessionID: sess.id})
	}
	r.sessions.Remove(sess.id)
	return c.Fail(wire.CodeInternal, 0, "no worker could admit the session after %d attempts: %v",
		r.cfg.RelayAttempts, lastErr)
}

// handleInfer relays one inference request to its session's owner, healing
// around failure: a dead or draining owner is removed from the ring and the
// request retried on the session's new owner (keys replayed via handoff), so
// a worker loss never surfaces to the client while any worker survives.
func (h *relayHandler) handleInfer(c *wire.Conn, payload []byte) bool {
	r := h.r
	if len(payload) < inferHdrLen {
		return c.Fail(wire.CodeBadMessage, 0, "%v payload of %d bytes has no request header", wire.MsgInferBatchRequest, len(payload))
	}
	reqID := binary.LittleEndian.Uint64(payload[offRequestID:])
	if r.ep.Draining() {
		r.rejShutdown.Add(1)
		return c.Fail(wire.CodeShuttingDown, reqID, "router is draining")
	}
	sid := binary.LittleEndian.Uint64(payload[offSessionID:])
	sess, ok := r.sessions.Get(sid)
	if !ok {
		r.unknownSession.Add(1)
		return c.Fail(wire.CodeUnknownSession, reqID, "session %d unknown or evicted at the router; re-open", sid)
	}
	traceID := binary.LittleEndian.Uint64(payload[offTraceID:])
	clientParent := binary.LittleEndian.Uint64(payload[offParent:])
	origTimeout := binary.LittleEndian.Uint32(payload[offTimeout:])
	start := time.Now()

	// The router's relay span interposes between the client's span and the
	// worker's request scope: the parent-span header slot is rewritten to
	// relaySpan, so worker spans attach under the router, which attaches
	// under the client.
	relaySpan := telemetry.NewSpanID()
	binary.LittleEndian.PutUint64(payload[offParent:], relaySpan)

	r.relayWG.Add(1)
	defer r.relayWG.Done()
	r.relays.Add(1)

	var lastErr error
	for attempt := 0; attempt < r.cfg.RelayAttempts; attempt++ {
		attemptStart := time.Now()
		owner, ok := r.ring.Owner(sid)
		if !ok {
			lastErr = errors.New("no live workers on the ring")
			break
		}
		w := r.workers[owner]
		wid, errf, err := h.handoff(sess, owner, traceID, relaySpan)
		if err != nil {
			r.markDown(owner, err)
			r.failovers.Add(1)
			r.recordFailover(owner, attemptStart, traceID, relaySpan)
			lastErr = err
			continue
		}
		if errf != nil {
			if errf.Code == wire.CodeShuttingDown {
				r.markDown(owner, errors.New(errf.Message))
				r.failovers.Add(1)
				r.recordFailover(owner, attemptStart, traceID, relaySpan)
				lastErr = errf
				continue
			}
			return c.Fail(errf.Code, reqID, "%s", errf.Message)
		}

		// Rewrite the mutable header fields for this attempt: the owner's
		// session ID, and the deadline budget that remains after time
		// already burned at the router (so a retried request cannot outlive
		// the client's deadline on a second worker).
		binary.LittleEndian.PutUint64(payload[offSessionID:], wid)
		if origTimeout != 0 {
			rem := int64(origTimeout) - time.Since(start).Milliseconds()
			if rem <= 0 {
				return c.Fail(wire.CodeDeadlineExceeded, reqID,
					"deadline expired after %v at the router", time.Since(start).Round(time.Millisecond))
			}
			binary.LittleEndian.PutUint32(payload[offTimeout:], uint32(rem))
		}

		up, err := h.conn(owner)
		if err != nil {
			r.markDown(owner, err)
			r.failovers.Add(1)
			r.recordFailover(owner, attemptStart, traceID, relaySpan)
			lastErr = err
			continue
		}
		w.inflight.Add(1)
		err = wire.WriteFrame(up, wire.MsgInferBatchRequest, payload)
		var (
			rt   wire.MsgType
			resp []byte
		)
		if err == nil {
			rt, resp, err = wire.ReadFrame(up, wire.DefaultMaxFrame)
		}
		w.inflight.Add(-1)
		if err != nil {
			h.drop(owner)
			r.markDown(owner, err)
			r.failovers.Add(1)
			r.recordFailover(owner, attemptStart, traceID, relaySpan)
			lastErr = err
			continue
		}
		if rt == wire.MsgError {
			var ef wire.ErrorFrame
			if ef.Decode(resp) == nil {
				switch ef.Code {
				case wire.CodeUnknownSession:
					// The worker evicted the handed-off session; replay the
					// keys and retry the same owner.
					sess.invalidate(wid)
					r.unknownSession.Add(1)
					r.cfg.Logger.Info("session evicted on worker; replaying keys", "session", sid,
						"trace_id", fmt.Sprintf("%016x", traceID), "worker", owner)
					lastErr = &ef
					continue
				case wire.CodeShuttingDown:
					sess.invalidate(wid)
					r.markDown(owner, errors.New(ef.Message))
					r.failovers.Add(1)
					lastErr = &ef
					continue
				}
			}
			// Any other error frame is the request's real answer (deadline,
			// queue full, bad tensor) — forward it verbatim.
		}
		w.relayed.Add(1)
		r.spans.Record(telemetry.KindScope, "relay:"+owner, start, time.Now(),
			traceID, relaySpan, clientParent)
		r.cfg.Logger.Debug("relayed",
			"trace_id", fmt.Sprintf("%016x", traceID),
			"request", reqID, "worker", owner, "attempts", attempt+1,
			"dur", time.Since(start).Round(time.Microsecond))
		return wire.WriteFrame(c, rt, resp) == nil
	}
	r.cfg.Logger.Warn("relay failed",
		"trace_id", fmt.Sprintf("%016x", traceID),
		"request", reqID, "attempts", r.cfg.RelayAttempts, "err", fmt.Sprint(lastErr))
	return c.Fail(wire.CodeInternal, reqID,
		"no worker could serve request %d (trace %016x) after %d attempts: %v",
		reqID, traceID, r.cfg.RelayAttempts, lastErr)
}

// recordFailover marks one abandoned relay attempt in the span ring.
func (r *Router) recordFailover(owner string, start time.Time, traceID, parent uint64) {
	r.spans.Record(telemetry.KindOp, "failover:"+owner, start, time.Now(),
		traceID, telemetry.NewSpanID(), parent)
}

// Metrics snapshots router and per-worker counters.
func (r *Router) Metrics() RouterMetrics {
	opened, evicted, active := r.sessions.Stats()
	m := RouterMetrics{
		SessionsOpened:   opened,
		SessionsEvicted:  evicted,
		SessionsActive:   active,
		Relays:           r.relays.Load(),
		Failovers:        r.failovers.Load(),
		Handoffs:         r.handoffs.Load(),
		Rebalances:       r.rebalances.Load(),
		ProbeFailures:    r.probeFails.Load(),
		ClientErrors:     r.ep.ErrorFrames(),
		RejectedShutdown: r.rejShutdown.Load(),
		UnknownSessions:  r.unknownSession.Load(),
		RegistryModels:   r.registry.Size(),
		LiveWorkers:      r.ring.Size(),
		TraceSpans:       int(r.spans.SpanCount()),
		SpansDropped:     r.spans.Dropped(),
	}
	for _, w := range r.workerList {
		m.Workers = append(m.Workers, WorkerMetrics{
			Addr:          w.addr,
			Up:            w.up.Load(),
			Draining:      w.draining.Load(),
			Inflight:      w.inflight.Load(),
			Relayed:       w.relayed.Load(),
			Handoffs:      w.handoffs.Load(),
			Bootstraps:    w.bootstraps.Load(),
			MinHeadroom:   w.minHeadroom.Load(),
			HeadroomKnown: w.headroomKnown.Load(),
		})
	}
	return m
}

// Spans exposes the router's span ring (tests and the /trace endpoint).
func (r *Router) Spans() *telemetry.SpanRing { return r.spans }

// CollectTrace assembles the cross-process view of one trace (traceID 0
// collects everything): the router's own spans plus a trace dump from every
// live worker, each as a ProcessTrace with a distinct PID and its own epoch,
// ready for telemetry.WriteChromeTraceMulti. A worker that cannot be reached
// is skipped — a partial trace beats none — with the failure logged.
func (r *Router) CollectTrace(traceID uint64) []telemetry.ProcessTrace {
	procs := []telemetry.ProcessTrace{{
		Name:  "chet-router",
		PID:   1,
		Epoch: r.spans.Epoch(),
		Spans: telemetry.FilterTrace(r.spans.Snapshot(), traceID),
	}}
	for i, w := range r.workerList {
		if !w.up.Load() {
			continue
		}
		pt, err := r.dumpWorker(w.addr, traceID)
		if err != nil {
			r.cfg.Logger.Warn("trace dump failed", "worker", w.addr, "err", err.Error())
			continue
		}
		pt.PID = 2 + i
		procs = append(procs, pt)
	}
	return procs
}

// dumpWorker runs one trace-dump exchange against a worker.
func (r *Router) dumpWorker(addr string, traceID uint64) (telemetry.ProcessTrace, error) {
	var pt telemetry.ProcessTrace
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return pt, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(r.cfg.ProbeTimeout))
	var ack wire.TraceDumpAck
	if err := wire.Call(c, wire.DefaultMaxFrame, wire.MsgTraceDump, &wire.TraceDump{TraceID: traceID}, wire.MsgTraceDumpAck, &ack); err != nil {
		return pt, err
	}
	name := ack.Process
	if name == "" {
		name = "worker:" + addr
	}
	pt.Name = name
	pt.Epoch = time.Unix(0, ack.EpochUnixNano)
	pt.Spans = ack.Spans
	return pt, nil
}
