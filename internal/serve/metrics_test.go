package serve

import (
	"sync"
	"testing"
	"time"

	"chet/internal/htc"
	"chet/internal/wire"
)

// TestLatencySummaryInterpolatedQuantiles pins the recorder's quantiles on
// a known ladder: with samples 100ms..1000ms, nearest-rank would report
// P90=1000ms and P99=1000ms; linear interpolation must land between ranks.
func TestLatencySummaryInterpolatedQuantiles(t *testing.T) {
	l := newLatencyRecorder()
	// Record in a scrambled order: summary() sorts.
	for _, i := range []int{7, 2, 10, 1, 9, 4, 6, 3, 8, 5} {
		l.record(time.Duration(i) * 100 * time.Millisecond)
	}
	s := l.summary()
	if s.Count != 10 {
		t.Fatalf("Count = %d, want 10", s.Count)
	}
	if want := 5500 * time.Millisecond; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
	if want := 550 * time.Millisecond; s.P50 != want {
		t.Errorf("P50 = %v, want %v", s.P50, want)
	}
	if want := 910 * time.Millisecond; s.P90 != want {
		t.Errorf("P90 = %v, want %v", s.P90, want)
	}
	if want := 991 * time.Millisecond; s.P99 != want {
		t.Errorf("P99 = %v, want %v", s.P99, want)
	}
}

// TestLatencySummaryEmptyAndSingle covers the window edge cases.
func TestLatencySummaryEmptyAndSingle(t *testing.T) {
	l := newLatencyRecorder()
	if s := l.summary(); s.Count != 0 || s.P50 != 0 || s.Sum != 0 {
		t.Errorf("empty recorder summary = %+v, want zeros", s)
	}
	l.record(42 * time.Millisecond)
	s := l.summary()
	if s.P50 != 42*time.Millisecond || s.P99 != 42*time.Millisecond {
		t.Errorf("single-sample quantiles = %+v, want 42ms across", s)
	}
}

// TestLatencyWindowBounds checks the ring keeps only the newest
// latencyWindow samples while Count and Sum track everything ever recorded.
func TestLatencyWindowBounds(t *testing.T) {
	l := newLatencyRecorder()
	for i := 0; i < latencyWindow+100; i++ {
		l.record(time.Millisecond)
	}
	s := l.summary()
	if s.Count != latencyWindow+100 {
		t.Errorf("Count = %d, want %d", s.Count, latencyWindow+100)
	}
	if want := time.Duration(latencyWindow+100) * time.Millisecond; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
	if len(l.ring) != latencyWindow {
		t.Errorf("ring grew to %d, want %d", len(l.ring), latencyWindow)
	}
}

// TestLatencyQuantilesAfterWraparound pins quantile behavior across a ring
// wrap: once the window overwrites, quantiles must reflect the retained mix
// of old and new samples, and a full overwrite must forget the old regime
// entirely.
func TestLatencyQuantilesAfterWraparound(t *testing.T) {
	l := newLatencyRecorder()
	// Fill the window with 1ms, then half a window of 1s: the ring now holds
	// exactly half of each regime. P50 interpolates across the boundary
	// (midpoint of 1ms and 1s); P90 sits firmly in the new regime.
	for i := 0; i < latencyWindow; i++ {
		l.record(time.Millisecond)
	}
	for i := 0; i < latencyWindow/2; i++ {
		l.record(time.Second)
	}
	s := l.summary()
	if want := (time.Millisecond + time.Second) / 2; s.P50 != want {
		t.Errorf("half-wrapped P50 = %v, want %v (interpolated across regimes)", s.P50, want)
	}
	if s.P90 != time.Second {
		t.Errorf("half-wrapped P90 = %v, want 1s", s.P90)
	}
	// Finish the overwrite: the old regime must vanish from every quantile.
	for i := 0; i < latencyWindow/2; i++ {
		l.record(time.Second)
	}
	s = l.summary()
	if s.P50 != time.Second || s.P99 != time.Second {
		t.Errorf("fully-wrapped quantiles = P50 %v / P99 %v, want 1s across", s.P50, s.P99)
	}
	if want := uint64(2 * latencyWindow); s.Count != want {
		t.Errorf("Count = %d, want %d (lifetime, not window)", s.Count, want)
	}
}

// newMetricsTestServer builds the minimal Server state Metrics() touches,
// without a compiled circuit.
func newMetricsTestServer() *Server {
	return &Server{
		reg:         wire.NewSessionTable[*session](4),
		constants:   htc.NewConstants(),
		latency:     newLatencyRecorder(),
		queueWait:   newLatencyRecorder(),
		evalLatency: newLatencyRecorder(),
		batchSizes:  map[int]uint64{},
		fleet:       wire.NewRegistry(),
	}
}

// TestBatchSizesSnapshotIsDeepCopy checks Metrics() hands out an
// independent map: mutating the snapshot must not corrupt server state.
func TestBatchSizesSnapshotIsDeepCopy(t *testing.T) {
	s := newMetricsTestServer()
	s.batchMu.Lock()
	s.batchSizes[4] = 7
	s.batchMu.Unlock()

	m := s.Metrics()
	m.BatchSizes[4] = 999
	m.BatchSizes[16] = 1

	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.batchSizes[4] != 7 {
		t.Errorf("mutating the snapshot changed server state: batchSizes[4] = %d, want 7", s.batchSizes[4])
	}
	if _, ok := s.batchSizes[16]; ok {
		t.Error("mutating the snapshot inserted a key into server state")
	}
}

// TestMetricsSnapshotConcurrentWithMutation hammers Metrics() while the
// batch tallies and latency recorders mutate; run under -race (ci.sh gates
// it) this is the data-race check for the metrics surface.
func TestMetricsSnapshotConcurrentWithMutation(t *testing.T) {
	s := newMetricsTestServer()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.batchMu.Lock()
				s.batchSizes[1+i%8]++
				s.batchMu.Unlock()
				s.latency.record(time.Duration(i) * time.Microsecond)
				s.requests.Add(1)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		m := s.Metrics()
		// Read and mutate the snapshot: both must be safe mid-flight.
		for k := range m.BatchSizes {
			m.BatchSizes[k]++
		}
		_ = m.Latency.P99
	}
	close(stop)
	wg.Wait()
}
