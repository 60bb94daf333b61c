package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Span IDs must be unique across every process participating in one trace —
// a router and its workers allocate them independently and the merged trace
// must not collide. Each process draws a random 40-bit base at startup and
// counts up through the low 24 bits, so collisions require two processes to
// land on the same base.
var (
	spanIDBase uint64
	spanIDCtr  atomic.Uint64
	spanIDOnce sync.Once
)

// NewSpanID allocates a process-unique, cross-process-collision-resistant
// span ID. Never returns 0 (0 means "no span").
func NewSpanID() uint64 {
	spanIDOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			spanIDBase = binary.LittleEndian.Uint64(b[:]) &^ ((1 << 24) - 1)
		}
		if spanIDBase == 0 {
			spanIDBase = 1 << 24
		}
	})
	return spanIDBase + spanIDCtr.Add(1)
}

// SpanRing is the bounded span recorder: every Tracer records into one, and
// processes with no hisa.Backend to wrap use one directly — the router
// records its admission, placement, relay, failover, and handoff spans here.
// It is mutex-guarded, overwrite-on-wrap, and snapshot-in-order.
type SpanRing struct {
	epoch time.Time

	mu      sync.Mutex
	ring    []Span
	next    int
	full    bool
	count   int64
	dropped uint64
}

// NewSpanRing builds a ring holding up to capacity spans (default 1 << 16).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &SpanRing{epoch: time.Now(), ring: make([]Span, 0, capacity)}
}

// Epoch returns the instant span Start offsets are measured from.
func (r *SpanRing) Epoch() time.Time { return r.epoch }

// Record appends one span. Start/end are wall-clock instants; the ring
// stores the epoch offset so its spans merge with Tracer spans on one
// timeline.
func (r *SpanRing) Record(kind SpanKind, op string, start, end time.Time, traceID, spanID, parent uint64) {
	r.put(Span{
		Kind:    kind,
		Op:      op,
		Start:   start.Sub(r.epoch),
		Dur:     end.Sub(start),
		LevelIn: -1, LevelOut: -1,
		GID:     goroutineID(),
		TraceID: traceID,
		SpanID:  spanID,
		Parent:  parent,
	})
}

// put appends one span, overwriting the oldest once the ring is full.
func (r *SpanRing) put(s Span) {
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
	} else {
		r.ring[r.next] = s
		r.next = (r.next + 1) % len(r.ring)
		r.full = true
		r.dropped++
	}
	r.count++
	r.mu.Unlock()
}

// Snapshot copies the retained spans in chronological order.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.ring...)
	}
	out := make([]Span, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// SpanCount returns the cumulative number of spans recorded, including any
// the ring has since dropped.
func (r *SpanRing) SpanCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped reports how many spans the ring has overwritten.
func (r *SpanRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// FilterTrace returns the spans matching traceID, or all spans when
// traceID is 0.
func FilterTrace(spans []Span, traceID uint64) []Span {
	if traceID == 0 {
		return spans
	}
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}
