// Package telemetry is the observability layer of the repository: a
// low-overhead, race-clean tracing and profiling facility that threads
// through hisa → htc → core → serve. Its center is Tracer, a hisa.Backend
// wrapper that records one span per homomorphic operation — op kind, wall
// time, ciphertext level and scale before/after, rotation amount, worker
// goroutine — into a bounded ring, nesting ops under the kernel/layer
// scopes the htc executor opens. A recorded run exports either a flat
// per-op/per-scope profile (count, total, p50/p99, % of wall) or Chrome
// trace_event JSON viewable in Perfetto (chrome.go); precision.go runs the
// same circuit against the plaintext Ref oracle and records the per-layer
// error the paper's profile-guided scale search consumes.
//
// Tracer composes with hisa.Meter and hisa.Refresher in any order: all three
// observe the op stream of a hisa.Interposer, which alone decides what counts
// as an instruction, so span tallies and op counts agree by construction.
package telemetry

import (
	"runtime"
	"strings"
	"sync"
	"time"

	"chet/internal/hisa"
)

// SpanKind distinguishes operation spans from the enclosing scope spans the
// executor opens around each circuit node.
type SpanKind uint8

// The two span kinds.
const (
	// KindOp is one HISA instruction execution.
	KindOp SpanKind = iota
	// KindScope is one kernel/layer scope (a circuit node, or a serve-side
	// request evaluation); its duration encloses the ops recorded under it.
	KindScope
)

// Span is one recorded event. Times are offsets from the Tracer's epoch so
// spans from concurrent goroutines share one timeline.
type Span struct {
	Kind SpanKind
	// Op is the instruction mnemonic ("mul", "rotl", ...) for KindOp, or
	// the scope label ("conv2d:conv1") for KindScope.
	Op string
	// Scope is the enclosing scope path at record time ("" at top level;
	// nested scopes join with '/').
	Scope string
	Start time.Duration
	Dur   time.Duration
	// LevelIn/LevelOut are the ciphertext level before/after the op when
	// the backend exposes levels (RNS); -1 otherwise.
	LevelIn, LevelOut int
	// ScaleIn/ScaleOut are the fixed-point scales of the ciphertext
	// operand/result (0 when the op has none, e.g. encode).
	ScaleIn, ScaleOut float64
	// Rot is the rotation amount for rotl/rotr spans.
	Rot int
	// GID is the goroutine that executed the op (worker attribution).
	GID int64
	// TraceID correlates spans across processes: the client allocates it,
	// the wire protocol carries it through router and worker hops, and every
	// span recorded under a request scope inherits it. 0 = untraced.
	TraceID uint64
	// SpanID identifies a scope span so children can reference it; op spans
	// are leaves and leave it 0.
	SpanID uint64
	// Parent is the SpanID of the enclosing span — for a worker's request
	// scope, the router's relay span, which is how cross-process span trees
	// stitch into one trace.
	Parent uint64
}

// OpTotal is a cumulative per-op tally; unlike the span ring it never drops
// history, so long-running servers export exact totals.
type OpTotal struct {
	Count int64
	Total time.Duration
}

// Config parameterizes a Tracer. The zero value selects the defaults.
type Config struct {
	// Capacity bounds the span ring; once full, the oldest spans are
	// overwritten (Dropped counts them). Default 1 << 16.
	Capacity int
}

// scopeFrame is one open scope: its label plus the trace context every op
// and nested scope recorded under it inherits.
type scopeFrame struct {
	label   string
	traceID uint64
	spanID  uint64
	parent  uint64
}

// Tracer wraps a hisa.Backend and records one span per instruction its
// hisa.Interposer reports into a SpanRing. It implements Backend (kernels are
// oblivious to it) and is safe for concurrent op execution: the scope stack
// and totals are mutex-guarded, and the lock is held only for the append —
// never across the wrapped operation.
type Tracer struct {
	hisa.Interposer
	levelOf func(hisa.Ciphertext) int // nil when the chain has no levels
	spans   *SpanRing

	mu     sync.Mutex
	stack  []scopeFrame
	scope  string // joined stack labels, cached
	totals map[string]*OpTotal
}

// NewTracer wraps inner. The level probe is resolved once, through the
// wrapper chain (every Interposer forwards it), so Tracer(Meter(RNS)) still
// records levels. When the chain exposes bootstrap stage hooks (RNSBackend
// with bootstrapping enabled or enabled later), the tracer installs one so
// each refresh records its pipeline stages ("boot:modraise",
// "boot:coeff-to-slot", ...) as child spans under whatever scope the refresh
// ran in.
func NewTracer(inner hisa.Backend, cfg Config) *Tracer {
	t := &Tracer{
		spans:  NewSpanRing(cfg.Capacity),
		totals: make(map[string]*OpTotal),
	}
	t.Interposer = hisa.NewInterposer(inner, "trace", nil, t.record)
	if lb, ok := hisa.AsLeveledEncode(inner); ok {
		t.levelOf = lb.LevelOf
	}
	if sb, ok := hisa.FindCapability[stageBackend](inner); ok {
		sb.SetBootstrapStageHook(func(stage string, start, end time.Time) {
			t.RecordManual(KindOp, "boot:"+stage, start, end.Sub(start), 0, 0, 0)
		})
	}
	return t
}

// stageBackend is the optional capability (RNSBackend) for observing the
// interior stages of each bootstrap refresh.
type stageBackend interface {
	SetBootstrapStageHook(func(stage string, start, end time.Time))
}

// Epoch returns the instant span Start offsets are measured from, so spans
// from several tracers (or processes) can be rebased onto one timeline.
func (t *Tracer) Epoch() time.Time { return t.spans.epoch }

// joinFrames rebuilds the cached scope path from the stack labels.
func joinFrames(stack []scopeFrame) string {
	labels := make([]string, len(stack))
	for i, f := range stack {
		labels[i] = f.label
	}
	return strings.Join(labels, "/")
}

// StartScope pushes a named scope; ops recorded until the returned func
// runs are attributed to it. The close func records the scope's own span.
// Scopes nest (the htc executor opens one per circuit node inside any
// request-level scope serve opened); open/close must pair on one goroutine,
// which the serial node loop guarantees. The scope inherits the enclosing
// scope's trace context, so executor-opened kernel scopes ride on the
// request's trace ID without knowing it exists.
func (t *Tracer) StartScope(label string) func() {
	end, _ := t.StartScopeCtx(label, 0, 0)
	return end
}

// StartScopeCtx is StartScope with explicit trace context: the scope (and
// everything recorded under it) is stamped with traceID and parented under
// parent — for a serve-side request scope, the span ID the router wrote
// into the wire frame. It returns the scope's own span ID so callers can
// parent siblings (queue-wait spans) under it. A zero
// traceID inherits the enclosing scope's context instead.
func (t *Tracer) StartScopeCtx(label string, traceID, parent uint64) (func(), uint64) {
	start := time.Now()
	sid := NewSpanID()
	t.mu.Lock()
	if traceID == 0 {
		if n := len(t.stack); n > 0 {
			traceID = t.stack[n-1].traceID
			parent = t.stack[n-1].spanID
		}
	}
	t.stack = append(t.stack, scopeFrame{label: label, traceID: traceID, spanID: sid, parent: parent})
	t.scope = joinFrames(t.stack)
	t.mu.Unlock()
	return func() {
		end := time.Now()
		t.mu.Lock()
		// Unwind to this scope's frame: inner scopes leaked by a recovered
		// kernel panic are discarded rather than pinned forever.
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].label == label {
				t.stack = t.stack[:i]
				t.scope = joinFrames(t.stack)
				break
			}
		}
		parentScope := t.scope
		t.spans.put(Span{
			Kind:    KindScope,
			Op:      label,
			Scope:   parentScope,
			Start:   start.Sub(t.spans.epoch),
			Dur:     end.Sub(start),
			LevelIn: -1, LevelOut: -1,
			GID:     goroutineID(),
			TraceID: traceID,
			SpanID:  sid,
			Parent:  parent,
		})
		t.mu.Unlock()
	}, sid
}

// RecordManual records a span the backend wrapper cannot see — a queue
// wait, a bootstrap pipeline stage. A zero traceID inherits
// the current scope's trace context (like an op span would); an explicit
// one stands alone.
func (t *Tracer) RecordManual(kind SpanKind, op string, start time.Time, dur time.Duration, traceID, spanID, parent uint64) {
	s := Span{
		Kind:    kind,
		Op:      op,
		Start:   start.Sub(t.spans.epoch),
		Dur:     dur,
		LevelIn: -1, LevelOut: -1,
		GID:     goroutineID(),
		TraceID: traceID,
		SpanID:  spanID,
		Parent:  parent,
	}
	t.mu.Lock()
	s.Scope = t.scope
	if s.TraceID == 0 {
		if n := len(t.stack); n > 0 {
			s.TraceID = t.stack[n-1].traceID
			s.Parent = t.stack[n-1].spanID
		}
	}
	if kind == KindOp {
		t.tally(op, dur)
	}
	t.spans.put(s)
	t.mu.Unlock()
}

// tally folds one op span into the cumulative totals. Callers hold t.mu.
func (t *Tracer) tally(op string, dur time.Duration) {
	agg := t.totals[op]
	if agg == nil {
		agg = &OpTotal{}
		t.totals[op] = agg
	}
	agg.Count++
	agg.Total += dur
}

// record is the Interposer's after-hook: one span per reported instruction,
// with the level and scale of its ciphertext operand and result where it has
// them.
func (t *Tracer) record(op *hisa.Op) {
	s := Span{
		Kind:    KindOp,
		Op:      op.Kind.String(),
		Start:   op.Start.Sub(t.spans.epoch),
		Dur:     op.Dur,
		Rot:     op.Rot,
		LevelIn: -1, LevelOut: -1,
		GID: goroutineID(),
	}
	if op.In != nil {
		s.ScaleIn = t.Scale(op.In)
		if t.levelOf != nil {
			s.LevelIn = t.levelOf(op.In)
		}
	}
	if op.Out != nil {
		s.ScaleOut = t.Scale(op.Out)
		if t.levelOf != nil {
			s.LevelOut = t.levelOf(op.Out)
		}
	}
	t.mu.Lock()
	s.Scope = t.scope
	if n := len(t.stack); n > 0 {
		s.TraceID = t.stack[n-1].traceID
		s.Parent = t.stack[n-1].spanID
	}
	t.tally(s.Op, s.Dur)
	t.spans.put(s)
	t.mu.Unlock()
}

// Snapshot copies the retained spans in chronological order.
func (t *Tracer) Snapshot() []Span { return t.spans.Snapshot() }

// Totals copies the cumulative per-op tallies (never truncated by the ring).
func (t *Tracer) Totals() map[string]OpTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]OpTotal, len(t.totals))
	for k, v := range t.totals {
		out[k] = *v
	}
	return out
}

// SpanCount returns the cumulative number of op spans recorded (scope spans
// excluded), including any the ring has since dropped.
func (t *Tracer) SpanCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, v := range t.totals {
		n += v.Count
	}
	return n
}

// Dropped reports how many spans the ring has overwritten.
func (t *Tracer) Dropped() uint64 { return t.spans.Dropped() }

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 ["). Sub-microsecond against millisecond-scale lattice
// ops; tests assert the end-to-end tracer overhead budget.
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, ch := range buf[prefix:n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + int64(ch-'0')
	}
	return id
}
