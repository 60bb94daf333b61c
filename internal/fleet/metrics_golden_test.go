package fleet

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestRouterScrapeGolden pins the router's /metrics page byte for byte on a
// fixed snapshot; the golden page was rendered by the hand-written exposition
// code this package had before telemetry.Prom.
func TestRouterScrapeGolden(t *testing.T) {
	m := RouterMetrics{
		SessionsOpened: 9, SessionsEvicted: 2, SessionsActive: 7,
		Relays: 120, Failovers: 3, Handoffs: 11, Rebalances: 4, ProbeFailures: 5,
		ClientErrors: 6, RejectedShutdown: 1, UnknownSessions: 2,
		RegistryModels: 1, LiveWorkers: 1, TraceSpans: 512, SpansDropped: 8,
		Workers: []WorkerMetrics{
			{Addr: "127.0.0.1:7701", Up: true, Inflight: 2, Relayed: 80, Handoffs: 6,
				Bootstraps: 14, MinHeadroom: -1, HeadroomKnown: true},
			{Addr: "127.0.0.1:7702", Draining: true, Relayed: 40, Handoffs: 5},
		},
	}
	var got bytes.Buffer
	writeRouterProm(&got, m)
	path := "testdata/router_metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from the rendered page:\n%s", path, got.Bytes())
	}
}
