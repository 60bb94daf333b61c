package serve

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"chet/internal/hisa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestWorkerScrapeGolden pins the worker's /metrics page byte for byte on a
// fixed snapshot: one session whose Meter and Refresher saw a fixed
// instruction sequence over the plaintext backend, under fixed server
// counters. The session is untraced, since span durations are not
// reproducible. The golden page was rendered by the hand-written exposition
// code this package had before telemetry.Prom, plus the op="bootstrap" row
// that code left out of chet_hisa_ops_total.
func TestWorkerScrapeGolden(t *testing.T) {
	ref := hisa.NewRefBackend(8)
	meter := hisa.NewMeter(ref, nil)
	rf, err := hisa.NewRefresher(meter, 0)
	if err != nil {
		t.Fatal(err)
	}
	const scale = float64(1 << 30)
	p := rf.Encode([]float64{1, 2, 3}, scale)
	c := rf.Encrypt(p)
	rf.RotLeft(c, 1)
	rf.RotRight(c, 2)
	hisa.RotLeftMany(rf, c, []int{1, 2, 8})
	rf.Add(c, c)
	rf.SubPlain(c, p)
	rf.AddScalar(c, 1)
	rf.MulPlain(c, p)
	rf.MulScalar(c, 2, scale)
	rf.Free(rf.Bootstrap(rf.Mul(c, c)))
	rf.Decode(rf.Decrypt(c))

	lat := func(n uint64, ms int) LatencySummary {
		d := time.Duration(ms) * time.Millisecond
		return LatencySummary{Count: n, Sum: time.Duration(n) * d, P50: d, P90: 2 * d, P99: 3 * d}
	}
	m := ServerMetrics{
		SessionsOpened: 3, SessionsEvicted: 1, SessionsActive: 2,
		Requests: 40, Completed: 37, Errors: 1,
		RejectedQueueFull: 2, RejectedDeadline: 3, RejectedShutdown: 4,
		Inflight: 2, Handoffs: 5, HealthProbes: 60, RegistrySyncs: 7, RegistryModels: 1,
		Bootstraps: 1, MinHeadroom: 63, HeadroomKnown: true,
		Latency: lat(37, 250), QueueWait: lat(37, 40), Evaluation: lat(9, 200),
		BatchSizes: map[int]uint64{1: 2, 8: 4, 4: 3},
	}
	sess := &session{id: 7, backend: rf, meter: meter, refresher: rf, latency: newLatencyRecorder()}
	var got bytes.Buffer
	writePromMetrics(&got, m, []*session{sess}, 0)
	checkGolden(t, "testdata/worker_metrics.golden", got.Bytes())
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the rendered page:\n%s", path, got)
	}
}
