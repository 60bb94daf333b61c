package serve

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"chet/internal/hisa"
	"chet/internal/telemetry"
)

// ObservabilityMux returns an http.Handler exposing the server's live state:
//
//	/metrics        Prometheus text exposition (counters, latency summaries,
//	                per-op HISA counts, and — with Config.Trace — per-op
//	                durations from the session tracers)
//	/debug/pprof/*  the standard Go profiling endpoints
//
// The mux is safe to serve while inference traffic is live; every series is
// derived from the same snapshots Metrics returns.
func (s *Server) ObservabilityMux() http.Handler {
	mux := telemetry.DebugMux()
	mux.HandleFunc("/metrics", s.metricsHandler)
	return mux
}

func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePromMetrics(w, m, s.reg.Snapshot(), s.cfg.Compiled.Options.Scales.Pc)
}

// writePromMetrics renders a ServerMetrics snapshot in the Prometheus text
// exposition format (version 0.0.4), handwritten because the repo takes no
// dependencies. Sessions supply the per-op series; they are passed alongside
// the snapshot so tracer totals need not round-trip through ServerMetrics.
// defaultScale is the compiled input scale Δ; traced ciphertext scales are
// reported as log2 drift against it (zero disables the drift series).
func writePromMetrics(w io.Writer, m ServerMetrics, sessions []*session, defaultScale float64) {
	p := telemetry.Prom{W: w}
	p.Counter("chet_sessions_opened_total", "Sessions ever opened.", m.SessionsOpened)
	p.Counter("chet_sessions_evicted_total", "Sessions evicted by the LRU registry.", m.SessionsEvicted)
	p.Gauge("chet_sessions_active", "Live sessions in the registry.", m.SessionsActive)
	p.Counter("chet_requests_total", "Inference requests admitted to the queue.", m.Requests)
	p.Counter("chet_requests_completed_total", "Inference requests answered successfully.", m.Completed)
	p.Counter("chet_eval_errors_total", "Evaluations that failed.", m.Errors)
	p.Counter("chet_rejected_queue_full_total", "Requests rejected on a full admission queue.", m.RejectedQueueFull)
	p.Counter("chet_rejected_deadline_total", "Requests rejected past their deadline.", m.RejectedDeadline)
	p.Counter("chet_rejected_shutdown_total", "Requests rejected during shutdown.", m.RejectedShutdown)
	p.Gauge("chet_inflight_requests", "Admitted requests not yet answered.", m.Inflight)
	p.Counter("chet_session_handoffs_total", "Sessions admitted via router handoff.", m.Handoffs)
	p.Counter("chet_health_probes_total", "Health probes answered.", m.HealthProbes)
	p.Counter("chet_registry_syncs_total", "Registry-sync frames merged.", m.RegistrySyncs)
	p.Gauge("chet_registry_models", "Models in the replicated registry view.", m.RegistryModels)
	p.Gauge("chet_constant_plaintexts", "Encoded constants of the served program.", m.ConstantPlaintexts)
	p.Gauge("chet_constant_bytes", "Bytes held by the served program's encoded constants.", m.ConstantBytes)

	summary := func(name, help string, l LatencySummary) {
		p.Summary(name, help, l.P50, l.P90, l.P99, l.Sum, l.Count)
	}
	summary("chet_request_seconds", "End-to-end request latency (admission to response).", m.Latency)
	summary("chet_queue_wait_seconds", "Time requests spent in the admission queue.", m.QueueWait)
	summary("chet_evaluation_seconds", "Homomorphic evaluation time per circuit execution.", m.Evaluation)

	p.Family("chet_batch_evaluations_total", "Evaluations by the number of images they carried.", "counter")
	sizes := make([]int, 0, len(m.BatchSizes))
	for k := range m.BatchSizes {
		sizes = append(sizes, k)
	}
	sort.Ints(sizes)
	for _, k := range sizes {
		p.Sample("chet_batch_evaluations_total", "size", strconv.Itoa(k), m.BatchSizes[k])
	}

	// Per-op HISA instruction counts, summed over the live sessions' Meters.
	var ops hisa.OpCounts
	traced := map[string]telemetry.OpTotal{}
	for _, sess := range sessions {
		for k, n := range sess.meter.Counts() {
			ops[k] += n
		}
		if sess.tracer != nil {
			for op, tot := range sess.tracer.Totals() {
				agg := traced[op]
				agg.Count += tot.Count
				agg.Total += tot.Total
				traced[op] = agg
			}
		}
	}
	p.Family("chet_hisa_ops_total", "HISA instructions executed, by op kind (live sessions).", "counter")
	for k, n := range ops {
		switch kind := hisa.OpKind(k); kind {
		case hisa.OpRotLeft:
			// The Meter counts primitive key-switch steps, whichever way the
			// rotation was written: both directions are the one "rot" row.
			p.Sample("chet_hisa_ops_total", "op", "rot", ops.Rotations())
		case hisa.OpRotRight:
		default:
			p.Sample("chet_hisa_ops_total", "op", kind.String(), n)
		}
	}

	if len(traced) > 0 {
		names := make([]string, 0, len(traced))
		for op := range traced {
			names = append(names, op)
		}
		sort.Strings(names)
		p.Family("chet_hisa_op_seconds_total", "Wall time spent in HISA ops, by op kind (traced sessions).", "counter")
		for _, op := range names {
			p.Sample("chet_hisa_op_seconds_total", "op", op, traced[op].Total.Seconds())
		}
		p.Family("chet_hisa_op_spans_total", "Spans recorded by the session tracers, by op kind.", "counter")
		for _, op := range names {
			p.Sample("chet_hisa_op_spans_total", "op", op, traced[op].Count)
		}
	}

	// Ciphertext-budget telemetry. The aggregate refresh counter is always
	// present (zero without a bootstrap plan) so dashboards can rate() it
	// unconditionally; headroom, the compiled plan's, only appears once a
	// session has run.
	p.Counter("chet_bootstrap_refreshes_total", "Bootstrap refreshes across live sessions (the Meter's bootstrap tally).", m.Bootstraps)
	if m.HeadroomKnown {
		p.Gauge("chet_min_headroom_levels", "Low-water mark of ciphertext levels above the refresh floor.", m.MinHeadroom)
	}
	var wroteSessionBoots bool
	for _, sess := range sessions {
		sm := sess.metrics()
		if sm.Bootstraps == 0 && !sm.HeadroomKnown {
			continue
		}
		if !wroteSessionBoots {
			p.Family("chet_session_bootstrap_refreshes_total", "Bootstrap refreshes, by session.", "counter")
			wroteSessionBoots = true
		}
		p.Sample("chet_session_bootstrap_refreshes_total", "session", strconv.FormatUint(sm.ID, 10), sm.Bootstraps)
	}

	// Scale drift: the worst |log2(scale/Δ)| any traced op emitted, a direct
	// reading of how far waterline management let ciphertext scales wander
	// from the compiled default. Stays near zero under the op-local rescale
	// protocol; growth here means rescale placement is drifting.
	if defaultScale > 0 {
		drift, seen := 0.0, false
		for _, sess := range sessions {
			if sess.tracer == nil {
				continue
			}
			for _, sp := range sess.tracer.Snapshot() {
				if sp.ScaleOut <= 0 {
					continue
				}
				seen = true
				if d := math.Abs(math.Log2(sp.ScaleOut / defaultScale)); d > drift {
					drift = d
				}
			}
		}
		if seen {
			p.Gauge("chet_scale_drift_log2_max", "Max |log2(scale/default)| over traced op outputs.", drift)
		}
	}
}
