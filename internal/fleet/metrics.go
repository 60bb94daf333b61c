package fleet

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"chet/internal/telemetry"
)

// RouterMetrics is a point-in-time snapshot of the router's counters.
type RouterMetrics struct {
	SessionsOpened  uint64 // client sessions ever admitted
	SessionsEvicted uint64 // sessions dropped by the LRU table
	SessionsActive  int    // sessions currently tracked

	Relays           uint64 // inference requests relayed (counted once, not per attempt)
	Failovers        uint64 // relay attempts abandoned after a worker failure
	Handoffs         uint64 // session-handoff frames acked (placements + key replays)
	Rebalances       uint64 // ring membership changes (removals + readmissions)
	ProbeFailures    uint64 // individual health-probe failures
	ClientErrors     uint64 // error frames the router originated toward clients
	RejectedShutdown uint64 // opens/requests refused while draining
	UnknownSessions  uint64 // unknown-session errors (router table misses + worker evictions)

	RegistryModels int // models in the replicated registry view
	LiveWorkers    int // workers currently on the ring

	TraceSpans   int    // spans retained in the router's span ring
	SpansDropped uint64 // spans evicted from the ring by wraparound

	Workers []WorkerMetrics // per-worker breakdown, in configuration order
}

// WorkerMetrics is the router's per-worker view.
type WorkerMetrics struct {
	Addr     string
	Up       bool   // on the ring
	Draining bool   // last probe reported draining
	Inflight int64  // requests currently relayed to this worker
	Relayed  uint64 // responses delivered from this worker
	Handoffs uint64 // sessions handed to this worker

	// Ciphertext-budget telemetry scraped from health acks.
	Bootstraps    uint64 // cumulative bootstrap refreshes on this worker
	MinHeadroom   int64  // low-water mark of levels above the refresh floor
	HeadroomKnown bool   // false until the worker reports a multiplicative op
}

// ObservabilityMux returns an http.Handler exposing the router's live state:
// /metrics (Prometheus text exposition), /trace (merged cross-process Chrome
// trace; ?id=<hex trace ID> filters to one request, no id dumps everything),
// and /debug/pprof/*, mirroring the worker-side mux so the same scrape
// config covers the whole fleet.
func (r *Router) ObservabilityMux() http.Handler {
	mux := telemetry.DebugMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeRouterProm(w, r.Metrics())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		var traceID uint64
		if idStr := req.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 16, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad trace id %q: %v", idStr, err), http.StatusBadRequest)
				return
			}
			traceID = id
		}
		w.Header().Set("Content-Type", "application/json")
		if err := telemetry.WriteChromeTraceMulti(w, r.CollectTrace(traceID), nil); err != nil {
			r.cfg.Logger.Warn("trace export failed", "err", err.Error())
		}
	})
	return mux
}

// writeRouterProm renders a RouterMetrics snapshot in the Prometheus text
// exposition format (version 0.0.4), handwritten because the repo takes no
// dependencies.
func writeRouterProm(w io.Writer, m RouterMetrics) {
	p := telemetry.Prom{W: w}
	p.Counter("chet_router_sessions_opened_total", "Client sessions admitted by the router.", m.SessionsOpened)
	p.Counter("chet_router_sessions_evicted_total", "Sessions evicted by the router's LRU table.", m.SessionsEvicted)
	p.Gauge("chet_router_sessions_active", "Sessions currently tracked by the router.", m.SessionsActive)
	p.Counter("chet_router_relays_total", "Inference requests relayed to workers.", m.Relays)
	p.Counter("chet_router_failovers_total", "Relay attempts abandoned after a worker failure.", m.Failovers)
	p.Counter("chet_router_handoffs_total", "Session-handoff frames acked by workers.", m.Handoffs)
	p.Counter("chet_router_ring_rebalances_total", "Consistent-hash ring membership changes.", m.Rebalances)
	p.Counter("chet_router_probe_failures_total", "Health-probe failures.", m.ProbeFailures)
	p.Counter("chet_router_client_errors_total", "Error frames the router originated toward clients.", m.ClientErrors)
	p.Counter("chet_router_rejected_shutdown_total", "Opens and requests refused while draining.", m.RejectedShutdown)
	p.Counter("chet_router_unknown_sessions_total", "Unknown-session errors seen at the router.", m.UnknownSessions)
	p.Gauge("chet_router_registry_models", "Models in the replicated registry view.", m.RegistryModels)
	p.Gauge("chet_router_live_workers", "Workers currently on the ring.", m.LiveWorkers)
	p.Gauge("chet_router_trace_spans", "Spans retained in the router's span ring.", m.TraceSpans)
	p.Counter("chet_router_trace_spans_dropped_total", "Spans evicted from the router's span ring by wraparound.", m.SpansDropped)

	p.Family("chet_router_worker_up", "Worker ring membership (1 = on the ring).", "gauge")
	for _, wk := range m.Workers {
		up := 0
		if wk.Up {
			up = 1
		}
		p.Sample("chet_router_worker_up", "worker", wk.Addr, up)
	}
	p.Family("chet_router_worker_inflight", "Requests currently relayed per worker.", "gauge")
	for _, wk := range m.Workers {
		p.Sample("chet_router_worker_inflight", "worker", wk.Addr, wk.Inflight)
	}
	p.Family("chet_router_worker_relayed_total", "Responses delivered per worker.", "counter")
	for _, wk := range m.Workers {
		p.Sample("chet_router_worker_relayed_total", "worker", wk.Addr, wk.Relayed)
	}
	p.Family("chet_router_worker_handoffs_total", "Sessions handed to each worker.", "counter")
	for _, wk := range m.Workers {
		p.Sample("chet_router_worker_handoffs_total", "worker", wk.Addr, wk.Handoffs)
	}
	p.Family("chet_router_worker_bootstraps_total", "Bootstrap refreshes per worker (from health acks).", "counter")
	for _, wk := range m.Workers {
		p.Sample("chet_router_worker_bootstraps_total", "worker", wk.Addr, wk.Bootstraps)
	}
	p.Family("chet_router_worker_min_headroom_levels", "Low-water mark of ciphertext levels above the refresh floor per worker; absent until the worker reports one.", "gauge")
	for _, wk := range m.Workers {
		if wk.HeadroomKnown {
			p.Sample("chet_router_worker_min_headroom_levels", "worker", wk.Addr, wk.MinHeadroom)
		}
	}
}
