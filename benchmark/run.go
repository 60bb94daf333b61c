package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"chet"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64 // length of the timed window
	Trace    bool    // false: end-to-end run; true: per-layer run
	// Smoke shrinks every size (LeNet-tiny on a 2^11 ring, one operation) so
	// the whole benchmark can run inside a unit test.
	Smoke bool
	// BinDir holds the chet-serve and chet-router binaries.
	BinDir string
	Log    io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "[%s] "+format+"\n", append([]any{c.Workload}, args...)...)
	}
}

// runResult is what one run measured.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	Seconds   float64   `json:"seconds"`
	WallS     float64   `json:"wall_s"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Notes are checks that did not hold but do not make an output wrong
	// (for instance kernel scopes that do not tile the wall time).
	Notes []string `json:"notes,omitempty"`
}

// workloads maps a workload name to its implementation. Each fills
// res.Metrics and the tally; it returns an error only when the run could not
// be carried out at all.
var workloads = map[string]func(ctx context.Context, cfg runConfig, res *runResult, t *tally) error{
	"compile-zoo":   runCompileZoo,
	"secure-tiny":   runInProcess,
	"lenet5-small":  runInProcess,
	"fleet-batched": runFleet,
}

// runWorkload executes one run and derives the metrics every workload shares
// from its tally.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames)
	}
	res := &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Seconds: cfg.Seconds,
		Metrics: metricSet{},
	}
	t := &tally{}
	start := time.Now()
	if err := fn(ctx, cfg, res, t); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res.WallS = time.Since(start).Seconds()
	if t.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted", cfg.Workload)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	m := res.Metrics
	lat := sortedCopy(t.latencies)
	m.put("latency_s_p50", median(lat), len(lat))
	m.put("latency_s_p90", quantile(lat, 0.9), len(lat))
	m.put("failed_share", float64(t.failed)/float64(t.attempted), t.attempted)
	m.put("precision_bits", precisionBits(t.maxErr), t.attempted)
	if enc, ok := m["wire.encode_ms"]; ok && median(lat) > 0 {
		m.put("wire.codec_share", (enc.Value+m["wire.decode_ms"].Value)/1e3/median(lat), enc.Samples)
	}
	if _, ok := m["peak_rss_mib"]; !ok {
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, fmt.Errorf("reading peak RSS: %w", err)
		}
		m.put("peak_rss_mib", rss, 1)
	}
	return res, nil
}

// Outputs further than maxAbsError from the plaintext interpreter's, or with
// another argmax, are wrong.
const maxAbsError = 5e-2

// tally counts operations and keeps their client-visible latencies.
type tally struct {
	attempted, failed int
	images            int     // images whose prediction was correct
	maxErr            float64 // largest absolute error over all compared outputs
	latencies         []float64
}

// fail counts an operation that returned an error or was refused.
func (t *tally) fail() {
	t.attempted++
	t.failed++
}

// score counts one operation that produced predictions got for images whose
// plaintext predictions are want, and took latency seconds.
func (t *tally) score(got, want []*chet.Tensor, latency float64) {
	t.attempted++
	t.latencies = append(t.latencies, latency)
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		e := maxAbsDiff(got[i], want[i])
		if math.IsInf(e, 1) { // shapes differ: wrong, and no error to fold in
			ok = false
			break
		}
		t.maxErr = math.Max(t.maxErr, e)
		if e > maxAbsError || argmax(got[i].Data) != argmax(want[i].Data) {
			ok = false
		}
	}
	if !ok {
		t.failed++
		return
	}
	t.images += len(want)
}

func maxAbsDiff(a, b *chet.Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	var e float64
	for i := range a.Data {
		e = math.Max(e, math.Abs(a.Data[i]-b.Data[i]))
	}
	return e
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// imageSeed derives the seed of the k-th image of a run from the run's seed.
func imageSeed(seed uint64, k int) uint64 { return seed*1_000_003 + uint64(k) }

// window is the timed part of a run. A closed loop asks it before every
// operation whether another one fits: the first minOps always do (a median
// needs three samples before it can shrug off one that a noisy neighbour
// slowed down), a later one only if the window has room for an operation as
// long as the last, so a run never overshoots its length by a whole
// operation.
type window struct {
	start   time.Time
	seconds float64
	minOps  int
	ops     int
}

func openWindow(seconds float64, minOps int) *window {
	return &window{start: time.Now(), seconds: seconds, minOps: minOps}
}

func (w *window) elapsed() float64 { return time.Since(w.start).Seconds() }

// fits reports whether to start another operation, given how long the last
// one took, and counts it.
func (w *window) fits(last float64) bool {
	if w.ops >= max(1, w.minOps) && w.elapsed()+last > w.seconds {
		return false
	}
	w.ops++
	return true
}
