package serve

import (
	"sync/atomic"

	"chet/internal/hisa"
	"chet/internal/telemetry"
)

// session is one client's cached evaluation context: the eval-only backend
// built from the keys uploaded at session-open (wrapped in an atomic Meter
// for op counts, and — with Config.Trace — a telemetry.Tracer under it)
// plus per-session metrics. Keys are uploaded once and reused across every
// request the session makes; the server's wire.SessionTable caps how many
// sessions it keeps.
type session struct {
	id      uint64
	backend hisa.Backend // the top of the wrap chain, as the kernels see it
	meter   *hisa.Meter
	// tracer records per-op spans when Config.Trace is set; nil otherwise.
	tracer *telemetry.Tracer
	// refresher realizes the compiler's bootstrap placements when the served
	// circuit has a BootPlan; nil otherwise. Its atomic tally feeds the
	// per-session refresh counters in /metrics and the health acks.
	refresher *hisa.Refresher

	requests atomic.Uint64
	errors   atomic.Uint64
	latency  *latencyRecorder
}

func (s *session) metrics() SessionMetrics {
	m := SessionMetrics{
		ID:       s.id,
		Requests: s.requests.Load(),
		Errors:   s.errors.Load(),
		Ops:      s.meter.Counts(),
		Latency:  s.latency.summary(),
	}
	if s.refresher != nil {
		m.Bootstraps = uint64(s.refresher.Bootstraps())
		if h, ok := s.refresher.MinHeadroom(); ok {
			m.MinHeadroom, m.HeadroomKnown = int64(h), true
		}
	}
	return m
}
