package serve

import (
	"sync/atomic"

	"chet/internal/core"
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
	id uint64
	// meter tops the wrap chain: the program executes on it.
	meter *hisa.Meter
	// tracer records per-op spans when Config.Trace is set; nil otherwise.
	tracer *telemetry.Tracer
	// boot is the served program's bootstrap plan, nil without one: its
	// bootstraps are program instructions, tallied by the meter.
	boot *core.BootReport

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
	if s.boot != nil {
		m.Bootstraps = uint64(m.Ops[hisa.OpBootstrap])
		if m.Ops.Total() > 0 {
			m.MinHeadroom, m.HeadroomKnown = int64(s.boot.MinHeadroom), true
		}
	}
	return m
}
