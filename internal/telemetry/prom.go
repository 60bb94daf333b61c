package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux returns a mux serving the standard Go profiling endpoints under
// /debug/pprof/; the worker and the router add their /metrics (and the
// router its /trace) to it.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Prom writes the Prometheus text exposition format (version 0.0.4) to W,
// handwritten because the repo takes no dependencies. Sample values are
// integers or float64s.
type Prom struct{ W io.Writer }

// Family opens a metric family of the given type ("counter", "gauge",
// "summary"); its samples follow.
func (p Prom) Family(name, help, typ string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample, labelled label="value" unless label is empty.
func (p Prom) Sample(name, label, value string, v any) {
	if label != "" {
		name = fmt.Sprintf("%s{%s=%q}", name, label, value)
	}
	fmt.Fprintf(p.W, "%s %v\n", name, v)
}

// Counter writes a single-sample counter family.
func (p Prom) Counter(name, help string, v any) {
	p.Family(name, help, "counter")
	p.Sample(name, "", "", v)
}

// Gauge writes a single-sample gauge family.
func (p Prom) Gauge(name, help string, v any) {
	p.Family(name, help, "gauge")
	p.Sample(name, "", "", v)
}

// Summary writes a latency summary in seconds: the 0.5, 0.9 and 0.99
// quantiles, then the sum and count.
func (p Prom) Summary(name, help string, p50, p90, p99, sum time.Duration, count uint64) {
	p.Family(name, help, "summary")
	p.Sample(name, "quantile", "0.5", p50.Seconds())
	p.Sample(name, "quantile", "0.9", p90.Seconds())
	p.Sample(name, "quantile", "0.99", p99.Seconds())
	p.Sample(name+"_sum", "", "", sum.Seconds())
	p.Sample(name+"_count", "", "", count)
}
