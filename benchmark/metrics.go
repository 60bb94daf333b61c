package main

import (
	"fmt"
	"math"
)

// The four workloads, in the order a full set runs them.
var workloadNames = []string{"compile-zoo", "secure-tiny", "lenet5-small", "fleet-batched"}

// metricDef names one metric. The metrics with Contract set are the ones
// BENCHMARK.json lists: every workload prints every one of them (0 where the
// workload has no such layer), end-to-end ones on an untraced run and
// per-layer ones on a traced run. The others are printed and stored only by
// the workloads that measure them: they are times of layers that three of
// the four workloads do not have, and a time that is 0 on every run is not a
// measurement.
type metricDef struct {
	Name     string
	Unit     string
	Better   string  // "lower" or "higher"
	Bound    float64 // end-to-end only: share of the base median it may worsen by
	EndToEnd bool
	Contract bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, EndToEnd: true, Contract: true}
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Contract: true}
}

func extra(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

var metricDefs = []metricDef{
	// End to end: what a user of the compiler or of the service sees.
	e2e("setup_s", "s", "lower", 0.25),
	e2e("latency_s_p50", "s", "lower", 0.25),
	e2e("images_per_s", "1/s", "higher", 0.25),
	e2e("precision_bits", "bits", "higher", 0.10),
	e2e("peak_rss_mib", "MiB", "lower", 0.20),

	// Demoted from end to end (see README): not defined, or not steady, on
	// every workload.
	layer("latency_s_p90", "s", "lower"),
	layer("failed_share", "ratio", "lower"),
	layer("eval_key_mib", "MiB", "lower"),

	// core: the compiler.
	layer("core.compile_s", "s", "lower"),
	extra("core.compile_s.rns", "s", "lower"),
	extra("core.compile_s.ckks", "s", "lower"),
	extra("core.compile_s.boot", "s", "lower"),
	layer("core.logn", "count", "lower"),
	layer("core.chain_primes", "count", "lower"),
	layer("core.rotation_keys", "count", "lower"),
	layer("core.cost_est_ratio", "ratio", "higher"),
	layer("core.layout_regret", "ratio", "lower"),
	layer("core.layout_rank_spearman", "ratio", "higher"),
	layer("core.fingerprint_stable", "count", "higher"),

	// ckks: the scheme, through Session.Backend at the workload's own ring.
	layer("ckks.keygen_s", "s", "lower"),
	layer("ckks.encrypt_s", "s", "lower"),
	layer("ckks.decrypt_s", "s", "lower"),
	layer("ckks.mul_relin_ms", "ms", "lower"),
	layer("ckks.rotate_ms", "ms", "lower"),
	layer("ckks.rotate_hoisted_ms", "ms", "lower"),
	layer("ckks.rescale_ms", "ms", "lower"),
	layer("ckks.mulplain_ms", "ms", "lower"),

	// ring: the polynomial arithmetic under the scheme.
	layer("ring.ntt_us", "us", "lower"),
	layer("ring.intt_us", "us", "lower"),
	layer("ring.alloc_mib_per_infer", "MiB", "lower"),

	// hisa: instruction counts and time per instruction kind of one inference.
	layer("hisa.ops.rotate", "count", "lower"),
	layer("hisa.ops.mul", "count", "lower"),
	layer("hisa.ops.mulplain", "count", "lower"),
	layer("hisa.ops.mulscalar", "count", "lower"),
	layer("hisa.ops.rescale", "count", "lower"),
	layer("hisa.ops.relin", "count", "lower"),
	layer("hisa.ops.add", "count", "lower"),
	layer("hisa.time_s.rotate", "s", "lower"),
	layer("hisa.time_s.mul", "s", "lower"),
	layer("hisa.time_s.mulplain", "s", "lower"),
	layer("hisa.time_s.mulscalar", "s", "lower"),
	layer("hisa.time_s.rescale", "s", "lower"),
	layer("hisa.time_s.add", "s", "lower"),

	// htc: the tensor kernels that orchestrate the instructions.
	layer("htc.kernel_s.conv", "s", "lower"),
	layer("htc.kernel_s.dense", "s", "lower"),
	layer("htc.kernel_s.act", "s", "lower"),
	layer("htc.kernel_s.pool", "s", "lower"),
	layer("htc.serial_infer_s", "s", "lower"),
	layer("htc.self_s", "s", "lower"),
	layer("htc.tile_ratio", "ratio", "higher"),
	extra("htc.sim_exec_s", "s", "lower"),

	// wire: framing and marshalling of the request.
	layer("wire.request_kib", "KiB", "lower"),
	layer("wire.response_kib", "KiB", "lower"),
	layer("wire.codec_share", "ratio", "lower"),
	extra("wire.encode_ms", "ms", "lower"),
	extra("wire.decode_ms", "ms", "lower"),

	// serve and batch: one worker process.
	layer("serve.queue_wait_share", "ratio", "lower"),
	layer("serve.eval_share", "ratio", "lower"),
	layer("serve.session_open_share", "ratio", "lower"),
	layer("serve.worker_cpu_share", "ratio", "lower"),
	layer("serve.worker_rss_mib", "MiB", "lower"),
	layer("serve.rejected_total", "count", "lower"),
	layer("serve.eval_errors_total", "count", "lower"),
	layer("batch.lane_fill", "ratio", "higher"),
	extra("serve.queue_wait_s_p50", "s", "lower"),
	extra("serve.eval_s_p50", "s", "lower"),
	extra("serve.request_s_p50", "s", "lower"),
	extra("serve.session_open_s", "s", "lower"),
	extra("serve.worker_cpu_s", "s", "lower"),

	// fleet: the router in front of the workers.
	layer("fleet.relay_overhead_share", "ratio", "lower"),
	layer("fleet.router_cpu_share", "ratio", "lower"),
	layer("fleet.router_rss_mib", "MiB", "lower"),
	layer("fleet.relays_total", "count", "lower"),
	layer("fleet.handoffs_total", "count", "lower"),
	layer("fleet.failovers_total", "count", "lower"),
	layer("fleet.client_errors_total", "count", "lower"),
	layer("fleet.load_skew", "ratio", "lower"),
	extra("fleet.relay_overhead_s_p50", "s", "lower"),
	extra("fleet.router_cpu_s", "s", "lower"),

	// telemetry and proc: the cost of looking, and the process as the OS sees it.
	layer("telemetry.overhead_ratio", "ratio", "lower"),
	layer("telemetry.spans", "count", "lower"),
	layer("telemetry.dropped", "count", "lower"),
	layer("proc.cpu_s", "s", "lower"),
	layer("proc.gc_cpu_share", "ratio", "lower"),
	layer("proc.sys_cpu_share", "ratio", "lower"),
	layer("proc.unaccounted_share", "ratio", "lower"),
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		m[d.Name] = d
	}
	return m
}()

// measurement is one reported value and the number of observations it
// summarises (1 for a single timing or an exact count).
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects a run's measurements by metric name.
type metricSet map[string]measurement

// put records a value under a registered name; an unregistered name or a
// value that is not finite is a bug in the benchmark.
func (m metricSet) put(name string, value float64, samples int) {
	d, ok := metricByName[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the registry", name))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("benchmark: metric %q is not finite (%v)", name, value))
	}
	m[name] = measurement{Value: value, Unit: d.Unit, Samples: samples}
}

// names returns the recorded metric names in registry order.
func (m metricSet) names() []string {
	var out []string
	for _, d := range metricDefs {
		if _, ok := m[d.Name]; ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// contract returns exactly the BENCHMARK.json metrics of one kind, as the
// last line of standard output must carry them: measured values where the
// workload has them, 0 where it has no such layer.
func (m metricSet) contract(endToEnd bool) map[string]map[string]any {
	out := map[string]map[string]any{}
	for _, d := range metricDefs {
		if !d.Contract || d.EndToEnd != endToEnd {
			continue
		}
		out[d.Name] = map[string]any{"value": m[d.Name].Value, "unit": d.Unit}
	}
	return out
}

// precisionBits is -log2 of the largest absolute error, capped at 52 (a
// float64 mantissa) so that an exact result stays finite.
func precisionBits(maxAbsErr float64) float64 {
	if maxAbsErr <= 0 {
		return 52
	}
	return math.Min(52, -math.Log2(maxAbsErr))
}
