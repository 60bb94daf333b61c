package serve

import (
	"sort"
	"sync"
	"time"

	"chet/internal/hisa"
	"chet/internal/telemetry"
)

// latencyRecorder keeps a bounded ring of recent request latencies so
// quantile snapshots stay O(window) regardless of uptime. Homomorphic
// inferences run milliseconds to minutes each, so a small window spans a
// long operational history.
type latencyRecorder struct {
	mu    sync.Mutex
	ring  []time.Duration
	next  int
	count uint64        // total ever recorded
	sum   time.Duration // total duration ever recorded
}

const latencyWindow = 1024

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{ring: make([]time.Duration, 0, latencyWindow)}
}

func (l *latencyRecorder) record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	l.sum += d
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, d)
		return
	}
	l.ring[l.next] = d
	l.next = (l.next + 1) % len(l.ring)
}

// LatencySummary is a quantile snapshot over the recent-latency window.
type LatencySummary struct {
	Count         uint64        // total requests ever measured
	Sum           time.Duration // total duration ever measured
	P50, P90, P99 time.Duration
}

// summary snapshots the window. Quantiles interpolate linearly between the
// two closest ranks (telemetry.Quantile), so q(0.99) on a window under 100
// samples lands between the top samples instead of degenerating to the max.
func (l *latencyRecorder) summary() LatencySummary {
	l.mu.Lock()
	sample := append([]time.Duration(nil), l.ring...)
	count, sum := l.count, l.sum
	l.mu.Unlock()
	out := LatencySummary{Count: count, Sum: sum}
	if len(sample) == 0 {
		return out
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	q := func(p float64) time.Duration {
		return telemetry.Quantile(sample, p)
	}
	out.P50, out.P90, out.P99 = q(0.50), q(0.90), q(0.99)
	return out
}

// SessionMetrics is a point-in-time view of one session.
type SessionMetrics struct {
	ID       uint64
	Requests uint64
	Errors   uint64
	// Ops tallies the HISA instructions this session's backend executed
	// (from the atomic hisa.Meter wrapped around it).
	Ops     hisa.OpCounts
	Latency LatencySummary

	// Bootstraps counts this session's bootstrap instructions (the Meter's
	// bootstrap tally); zero when the served program has no bootstrap plan.
	// MinHeadroom is the plan's low-water mark of levels above the refresh
	// floor (the compiler's recording run), valid once the session has run.
	Bootstraps    uint64
	MinHeadroom   int64
	HeadroomKnown bool
}

// ServerMetrics is a point-in-time view of the whole server.
type ServerMetrics struct {
	SessionsOpened  uint64
	SessionsEvicted uint64
	SessionsActive  int

	Requests          uint64 // infer requests admitted to the queue
	Completed         uint64
	Errors            uint64 // evaluation failures
	RejectedQueueFull uint64
	RejectedDeadline  uint64
	RejectedShutdown  uint64
	// Inflight is the admitted-but-unanswered request gauge (also reported
	// in health acks so a router can balance on live load).
	Inflight int64

	// Fleet control-plane counters: sessions admitted via router handoff,
	// health probes answered, registry syncs folded in, and the size of this
	// worker's replicated model-registry view.
	Handoffs       uint64
	HealthProbes   uint64
	RegistrySyncs  uint64
	RegistryModels int

	// Ciphertext-budget telemetry, aggregated over the live sessions
	// (zero-valued when the served program has no bootstrap plan):
	// cumulative bootstraps and the worker-wide low-water mark of levels
	// above the refresh floor (valid when HeadroomKnown).
	Bootstraps    uint64
	MinHeadroom   int64
	HeadroomKnown bool

	// Latency is the end-to-end per-request view (admission to response);
	// QueueWait and Evaluation split it into the time a request spent in
	// the admission queue and the time its homomorphic evaluation ran.
	// Evaluation counts every circuit execution, including failed ones.
	Latency    LatencySummary
	QueueWait  LatencySummary
	Evaluation LatencySummary

	// BatchSizes counts evaluations by the number of images they carried
	// (the request's client-packed Count): BatchSizes[8] == 7 means seven
	// evaluations of eight images each — the batch lanes' fill.
	BatchSizes map[int]uint64

	// ConstantPlaintexts and ConstantBytes size the program's encoded
	// weights, masks and biases (htc.Program.Plaintexts), which every
	// session shares.
	ConstantPlaintexts int
	ConstantBytes      int64

	Sessions []SessionMetrics
}
