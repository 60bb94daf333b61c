package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chet"
	"chet/internal/ring"
	"chet/internal/serve"
)

// TestObservabilityEndpoints runs the binary path with -metrics-addr and
// -trace: one encrypted inference through the live server, then scrapes
// /metrics (checking the exposition parses and the expected series moved)
// and a short CPU profile from /debug/pprof/.
func TestObservabilityEndpoints(t *testing.T) {
	cfg := serveConfig{
		addr:           "127.0.0.1:0",
		model:          "LeNet-tiny",
		insecure:       true,
		workers:        2,
		parallel:       1,
		maxSessions:    4,
		queueDepth:     4,
		requestTimeout: time.Minute,
		batch:          1,
		metricsAddr:    "127.0.0.1:0",
		trace:          true,
	}
	var out strings.Builder
	type addrs struct{ listen, metrics net.Addr }
	ready := make(chan addrs, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var mu sync.Mutex
	logf := lockedWriter{&mu, &out}
	go func() {
		done <- run(&logf, cfg, stop, func(a, m net.Addr) { ready <- addrs{a, m} })
	}()

	var a addrs
	select {
	case a = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}
	if a.metrics == nil {
		t.Fatal("onReady delivered no metrics address despite -metrics-addr")
	}

	m, err := chet.Model(cfg.model)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := chet.Compile(m.Circuit, chet.Options{
		Scheme: chet.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.Dial(a.listen.String(), serve.ClientConfig{Compiled: comp, PRNG: ring.NewTestPRNG(5)})
	if err != nil {
		t.Fatal(err)
	}
	img := chet.SyntheticImage(m.InputShape, 3)
	if _, err := c.Run(img); err != nil {
		t.Fatal(err)
	}
	c.Close()

	body := httpGet(t, fmt.Sprintf("http://%s/metrics", a.metrics))
	checkPromExposition(t, body)
	for _, series := range []string{
		"chet_requests_total 1",
		"chet_requests_completed_total 1",
		"chet_request_seconds_count 1",
		"chet_queue_wait_seconds_count 1",
		"chet_evaluation_seconds_count 1",
		`chet_request_seconds{quantile="0.5"}`,
		`chet_hisa_ops_total{op="rot"}`,
		`chet_hisa_op_seconds_total{op="mulplain"}`,
		`chet_hisa_op_spans_total{op="rescale"}`,
		// No bootstrap plan at this depth, so the refresh tally is present
		// and zero; headroom and per-session series are bootstrap-gated.
		"chet_bootstrap_refreshes_total 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q:\n%s", series, body)
		}
	}

	prof := httpGet(t, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=1", a.metrics))
	if len(prof) == 0 {
		t.Error("empty pprof CPU profile")
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	mu.Lock()
	report := out.String()
	mu.Unlock()
	if !strings.Contains(report, "trace_id=") {
		t.Errorf("server log has no trace-ID dispatch line:\n%s", report)
	}
	if !strings.Contains(report, "observability on http://") {
		t.Errorf("server log does not announce the observability address:\n%s", report)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// checkPromExposition validates the text exposition line by line: every
// non-comment line must be `name[{labels}] value` with a parseable float
// value, and every series must be preceded by a TYPE comment.
func checkPromExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE comment %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				// The space before the value split the label set.
				j := strings.LastIndex(line, "} ")
				if j < 0 {
					t.Fatalf("malformed labeled series %q", line)
				}
				name, rest = line[:j+1], line[j+2:]
			}
			name = name[:strings.IndexByte(name, '{')]
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			t.Fatalf("series %q has unparseable value %q: %v", name, rest, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("series %q has no preceding TYPE comment", name)
		}
	}
}
