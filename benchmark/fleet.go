package main

// fleet-batched: one chet-router and two chet-serve workers as child
// processes on loopback, driven by two closed loops of client-packed batched
// requests. The only workload that crosses wire, serve, the batch lanes and
// fleet; at a fraction of a second of cryptography per evaluation, framing,
// relaying, queueing and marshalling get the largest share they ever will.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chet"
)

const (
	fleetModel   = "LeNet-tiny"
	fleetBatch   = 8 // images per request, the capacity chet-serve -batch 8 compiles for
	fleetWorkers = 2
	fleetWarmups = 2  // untimed requests per loop
	imagePool    = 32 // distinct images a run draws its batches from
)

// fleetOptions are the compile options chet-serve -insecure -batch 8 uses;
// the session-open handshake rejects a client compiled with any others.
func fleetOptions() chet.Options {
	return chet.Options{Scheme: chet.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13, Batch: fleetBatch}
}

// countingConn counts the bytes a client writes to and reads from the wire.
type countingConn struct {
	net.Conn
	written, read atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// fleetSession is one open client session and where it lives.
type fleetSession struct {
	c      *client
	conn   *countingConn
	openS  float64 // key generation + evaluation-key upload + accept
	keyMiB float64 // bytes written to open the session
	worker string  // address of the worker that owns it ("" when unknown)
}

func dialSession(addr string, comp *chet.Compiled, seed uint64) (*fleetSession, error) {
	start := time.Now()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	conn := &countingConn{Conn: raw}
	c, err := openSession(conn, comp, seed)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("opening session on %s: %w", addr, err)
	}
	return &fleetSession{
		c: c, conn: conn,
		openS:  time.Since(start).Seconds(),
		keyMiB: float64(conn.written.Load()) / (1 << 20),
	}, nil
}

// newRequestPool precomputes the prediction for every image a run can send,
// so checking a response costs no time in the loop; the pool is one large
// request that batches are cut from.
func newRequestPool(model *chet.NetModel, seed uint64) request {
	var p request
	for k := 0; k < imagePool; k++ {
		img := chet.SyntheticImage(model.InputShape, imageSeed(seed, k))
		p.imgs = append(p.imgs, img)
		p.want = append(p.want, model.Circuit.Evaluate(img))
	}
	return p
}

// batch returns the k-th request of loop j out of pool p.
func (p request) batch(j, k int) request {
	var r request
	for i := 0; i < fleetBatch; i++ {
		idx := (j*13 + k*fleetBatch + i) % imagePool
		r.imgs = append(r.imgs, p.imgs[idx])
		r.want = append(r.want, p.want[idx])
	}
	return r
}

// roundTrip sends one request on a session and returns the predictions with
// the client-side stage times (infer is everything between encrypt-done and
// decrypt-start: framing, the wire, the router, the worker).
func roundTrip(s *fleetSession, r request) ([]*chet.Tensor, stageTimes, error) {
	t0 := time.Now()
	ct := s.c.EncryptBatch(r.imgs)
	t1 := time.Now()
	out, err := s.c.InferBatch(ct, len(r.imgs))
	if err != nil {
		return nil, stageTimes{}, err
	}
	t2 := time.Now()
	got := s.c.DecryptBatch(out, len(r.imgs))
	t3 := time.Now()
	return got, stageTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}, nil
}

// loopResult is what one closed loop observed.
type loopResult struct {
	t        tally
	enc, dec []float64
}

// driveLoops runs one closed loop per session for `seconds` (or `count`
// requests each when count > 0) and merges what they saw into t.
func driveLoops(ctx context.Context, cfg runConfig, sessions []*fleetSession, pool request,
	seconds float64, count int, first int, t *tally) (enc, dec []float64, windowS float64) {
	results := make([]loopResult, len(sessions))
	start := time.Now()
	var wg sync.WaitGroup
	for j, s := range sessions {
		wg.Add(1)
		go func(j int, s *fleetSession) {
			defer wg.Done()
			r := &results[j]
			win := &window{start: start, seconds: seconds, minOps: 3}
			var last float64
			for k := 0; ctx.Err() == nil; k++ {
				if count > 0 && k >= count {
					return
				}
				if count == 0 && !win.fits(last) {
					return
				}
				req := pool.batch(j, first+k)
				reqStart := time.Now()
				got, st, err := roundTrip(s, req)
				last = time.Since(reqStart).Seconds()
				if err != nil {
					cfg.logf("loop %d request %d: %v", j, k, err)
					r.t.fail()
					continue
				}
				r.t.score(got, req.want, st.total())
				r.enc = append(r.enc, st.enc)
				r.dec = append(r.dec, st.dec)
			}
		}(j, s)
	}
	wg.Wait()
	windowS = time.Since(start).Seconds()
	for i := range results {
		r := &results[i]
		t.attempted += r.t.attempted
		t.failed += r.t.failed
		t.images += r.t.images
		t.maxErr = max(t.maxErr, r.t.maxErr)
		t.latencies = append(t.latencies, r.t.latencies...)
		enc = append(enc, r.enc...)
		dec = append(dec, r.dec...)
	}
	return enc, dec, windowS
}

func runFleet(ctx context.Context, cfg runConfig, res *runResult, t *tally) (err error) {
	m := res.Metrics
	model, err := chet.Model(fleetModel)
	if err != nil {
		return err
	}
	pool := newRequestPool(model, cfg.Seed)
	proc := startProcWindow()

	// Set-up: processes up and registered, the client's compilation, one
	// session per worker with its keys uploaded, warm-up requests answered.
	spawnStart := time.Now()
	fl, err := startFleet(ctx, cfg, fleetWorkers)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := fl.stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()
	readyS := time.Since(spawnStart).Seconds()

	compileStart := time.Now()
	comp, err := chet.Compile(model.Circuit, fleetOptions())
	if err != nil {
		return fmt.Errorf("client compile: %w", err)
	}
	compileS := time.Since(compileStart).Seconds()

	sessions, opens, err := coverWorkers(ctx, cfg, fl, comp)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range sessions {
			s.c.Close()
		}
	}()
	warmStart := time.Now()
	warm := &tally{}
	warmups := fleetWarmups
	if cfg.Smoke {
		warmups = 1
	}
	driveLoops(ctx, cfg, sessions, pool, 0, warmups, 0, warm)
	if warm.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", warm.failed, warm.attempted)
	}
	warmS := time.Since(warmStart).Seconds()
	var keptOpenS float64
	for _, s := range sessions {
		keptOpenS += s.openS
	}
	// Sessions opened and dropped while looking for one on each worker are
	// the load generator's luck with the hash ring, not a cost of the system:
	// only the sessions that carry load count.
	m.put("setup_s", readyS+compileS+keptOpenS+warmS, 1)
	m.put("eval_key_mib", sessions[0].keyMiB, 1)
	cfg.logf("set up in %.2fs (fleet ready %.2fs, %d session opens, median %.2fs each)",
		m["setup_s"].Value, readyS, len(opens), medianOf(opens))

	// The timed window.
	cpuBefore := fl.cpu()
	sentBefore, recvBefore := wireBytes(sessions)
	count := 0
	if cfg.Smoke {
		count = 2 // with the warm-up, three requests on the first loop
	}
	enc, dec, windowS := driveLoops(ctx, cfg, sessions, pool, cfg.Seconds, count, warmups, t)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	cpuAfter := fl.cpu()
	sentAfter, recvAfter := wireBytes(sessions)
	m.put("images_per_s", float64(t.images)/windowS, t.attempted)

	rss, err := fl.peakRSS()
	if err != nil {
		return err
	}
	self, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	m.put("peak_rss_mib", self+rss.router+sum(rss.workers), 1)
	if !cfg.Trace {
		return nil
	}

	// Per-layer readings of the same window: the client's side, the OS, and
	// what the three processes export.
	n := float64(max(1, t.attempted))
	m.put("wire.request_kib", float64(sentAfter-sentBefore)/1024/n, t.attempted)
	m.put("wire.response_kib", float64(recvAfter-recvBefore)/1024/n, t.attempted)
	m.put("ckks.encrypt_s", medianOf(enc), len(enc))
	m.put("ckks.decrypt_s", medianOf(dec), len(dec))
	m.put("serve.session_open_s", medianOf(opens), len(opens))
	m.put("serve.session_open_share", medianOf(opens)*float64(len(sessions))/m["setup_s"].Value, len(opens))
	m.put("serve.worker_rss_mib", sum(rss.workers), len(rss.workers))
	m.put("fleet.router_rss_mib", rss.router, 1)
	workerCPU := sumCPU(cpuAfter.workers).sub(sumCPU(cpuBefore.workers))
	routerCPU := cpuAfter.router.sub(cpuBefore.router)
	m.put("serve.worker_cpu_s", workerCPU.total(), len(cpuAfter.workers))
	m.put("serve.worker_cpu_share", workerCPU.total()/(windowS*float64(len(cpuAfter.workers))), 1)
	m.put("fleet.router_cpu_s", routerCPU.total(), 1)
	m.put("fleet.router_cpu_share", routerCPU.total()/windowS, 1)
	if err := fl.scrapeLayers(m); err != nil {
		return err
	}
	latency := medianOf(t.latencies)
	relay, pairs, err := relayOverhead(ctx, cfg, fl, sessions[0], comp, pool)
	if err != nil {
		return err
	}
	m.put("fleet.relay_overhead_s_p50", relay, pairs)
	m.put("fleet.relay_overhead_share", relay/latency, pairs)
	m.put("serve.queue_wait_share", m["serve.queue_wait_s_p50"].Value/latency, 1)
	m.put("serve.eval_share", m["serve.eval_s_p50"].Value/latency, 1)

	// The fleet is done; stop it before the serial pass so the two do not
	// compete for the two cores. The deferred stop becomes a no-op.
	final := fl.cpu()
	childCPU := sumCPU(append(final.workers, final.router))
	if err := fl.stop(); err != nil {
		return err
	}
	if err := fleetSerialPass(cfg, model, comp, pool.batch(0, 0), res); err != nil {
		return err
	}

	// What no layer claims: the client's stages, the request's codec, the
	// worker's own request time and the router's relay are accounted for;
	// socket transfer and scheduling are what is left. The relay was measured
	// on an idle fleet and the rest under load, so the sum can exceed the
	// latency and the share go below zero; it is reported as it comes out.
	accounted := medianOf(enc) + medianOf(dec) + m["serve.request_s_p50"].Value + relay +
		(m["wire.encode_ms"].Value+m["wire.decode_ms"].Value)/1e3
	m.put("proc.unaccounted_share", 1-accounted/latency, 1)
	proc.report(m, childCPU)
	return nil
}

// fleetSerialPass records the hisa, htc, core, ckks and ring metrics: the
// program the workers serve, on one batch of eight, traced serially in this
// process as the workers run it (-workers 1).
func fleetSerialPass(cfg runConfig, model *chet.NetModel, comp *chet.Compiled, req request, res *runResult) error {
	m := res.Metrics
	keygenStart := time.Now()
	sess, err := newSession(comp, cfg.Seed)
	if err != nil {
		return fmt.Errorf("key generation: %w", err)
	}
	m.put("ckks.keygen_s", time.Since(keygenStart).Seconds(), 1)
	sess.Workers = 1
	if err := warmUp(sess, model, cfg.Seed, 1); err != nil {
		return err
	}
	passes := 2
	if cfg.Smoke {
		passes = 1
	}
	serial, err := serialPasses(operation{sess: sess, request: req}, passes, &tally{}, res)
	if err != nil {
		return err
	}
	serial.report(m, comp.Best.EstimatedCost)
	if _, err := compileLayer(model, fleetOptions(), m); err != nil {
		return err
	}
	unitCosts(sess, comp, m)
	if err := ringLayer(comp, m); err != nil {
		return err
	}
	return wireLayer(serial.input, fleetBatch, m)
}

// wireBytes sums what the sessions' clients have written and read so far.
func wireBytes(sessions []*fleetSession) (written, read int64) {
	for _, s := range sessions {
		written += s.conn.written.Load()
		read += s.conn.read.Load()
	}
	return written, read
}

// coverWorkers opens sessions through the router until every worker owns
// one, keeps the first session on each worker and closes the rest. It
// returns the kept sessions and the open time of every session it opened.
func coverWorkers(ctx context.Context, cfg runConfig, fl *fleet, comp *chet.Compiled) ([]*fleetSession, []float64, error) {
	owned := map[string]*fleetSession{}
	var opens []float64
	before, err := fl.handoffs()
	if err != nil {
		return nil, nil, err
	}
	// The hash ring places a session by its ID; with two workers a run of
	// sixteen opens all landing on one of them has probability 2^-15.
	for attempt := 0; len(owned) < len(fl.workers) && attempt < 16; attempt++ {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		s, err := dialSession(fl.router.addr, comp, cfg.Seed+uint64(attempt))
		if err != nil {
			return nil, nil, err
		}
		opens = append(opens, s.openS)
		after, err := fl.handoffs()
		if err != nil {
			return nil, nil, err
		}
		for addr, n := range after {
			if n > before[addr] {
				s.worker = addr
			}
		}
		before = after
		if _, taken := owned[s.worker]; taken || s.worker == "" {
			s.c.Close()
			continue
		}
		owned[s.worker] = s
	}
	if len(owned) < len(fl.workers) {
		return nil, nil, fmt.Errorf("sessions reached only %d of %d workers", len(owned), len(fl.workers))
	}
	var kept []*fleetSession
	for _, w := range fl.workers {
		kept = append(kept, owned[w.addr])
	}
	return kept, opens, nil
}

// relayOverhead is the median latency of a request through the router minus
// the median of the same request sent straight to the worker that owns the
// session, on an idle fleet, alternating the two paths.
func relayOverhead(ctx context.Context, cfg runConfig, fl *fleet, via *fleetSession, comp *chet.Compiled, pool request) (median float64, pairs int, err error) {
	direct, err := dialSession(via.worker, comp, cfg.Seed+100)
	if err != nil {
		return 0, 0, err
	}
	defer direct.c.Close()
	pairs = 5
	if cfg.Smoke {
		pairs = 1
	}
	var viaS, directS []float64
	for k := -1; k < pairs; k++ { // k = -1 warms the direct session up
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		req := pool.batch(2, k+1)
		_, stVia, err := roundTrip(via, req)
		if err != nil {
			return 0, 0, fmt.Errorf("request through the router: %w", err)
		}
		_, stDirect, err := roundTrip(direct, req)
		if err != nil {
			return 0, 0, fmt.Errorf("request straight to %s: %w", via.worker, err)
		}
		if k >= 0 {
			viaS = append(viaS, stVia.infer)
			directS = append(directS, stDirect.infer)
		}
	}
	return medianOf(viaS) - medianOf(directS), pairs, nil
}

// scrape fetches a Prometheus text page and returns its series by full name
// (labels included, as written).
func scrape(addr string) (map[string]float64, error) {
	hc := http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", addr, resp.Status)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series, nil
}

// handoffs returns the sessions the router has handed to each worker.
func (f *fleet) handoffs() (map[string]float64, error) {
	series, err := scrape(f.router.metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("scraping the router: %w", err)
	}
	out := map[string]float64{}
	for _, w := range f.workers {
		out[w.addr] = series[fmt.Sprintf("chet_router_worker_handoffs_total{worker=%q}", w.addr)]
	}
	return out, nil
}

// scrapeLayers records the serve, batch and fleet metrics the binaries
// export on /metrics.
func (f *fleet) scrapeLayers(m metricSet) error {
	var queue, eval, request []float64
	var rejected, evalErrors, evaluations float64
	for _, w := range f.workers {
		s, err := scrape(w.metricsAddr)
		if err != nil {
			return fmt.Errorf("scraping worker %s: %w", w.addr, err)
		}
		queue = append(queue, s[`chet_queue_wait_seconds{quantile="0.5"}`])
		eval = append(eval, s[`chet_evaluation_seconds{quantile="0.5"}`])
		request = append(request, s[`chet_request_seconds{quantile="0.5"}`])
		rejected += s["chet_rejected_queue_full_total"] + s["chet_rejected_deadline_total"] + s["chet_rejected_shutdown_total"]
		evalErrors += s["chet_eval_errors_total"]
		evaluations += s["chet_evaluation_seconds_count"]
	}
	m.put("serve.queue_wait_s_p50", medianOf(queue), len(queue))
	m.put("serve.eval_s_p50", medianOf(eval), len(eval))
	m.put("serve.request_s_p50", medianOf(request), len(request))
	m.put("serve.rejected_total", rejected, 1)
	m.put("serve.eval_errors_total", evalErrors, 1)

	r, err := scrape(f.router.metricsAddr)
	if err != nil {
		return fmt.Errorf("scraping the router: %w", err)
	}
	m.put("fleet.relays_total", r["chet_router_relays_total"], 1)
	m.put("fleet.handoffs_total", r["chet_router_handoffs_total"], 1)
	m.put("fleet.failovers_total", r["chet_router_failovers_total"], 1)
	m.put("fleet.client_errors_total", r["chet_router_client_errors_total"], 1)
	var relayed []float64
	for _, w := range f.workers {
		relayed = append(relayed, r[fmt.Sprintf("chet_router_worker_relayed_total{worker=%q}", w.addr)])
	}
	sort.Float64s(relayed)
	if mean := sum(relayed) / float64(len(relayed)); mean > 0 {
		m.put("fleet.load_skew", relayed[len(relayed)-1]/mean, len(relayed))
	}
	// Every request relayed so far (warm-up included) carried fleetBatch
	// images; an evaluation has room for the compiled capacity, also
	// fleetBatch.
	if evaluations > 0 {
		m.put("batch.lane_fill", r["chet_router_relays_total"]*fleetBatch/(evaluations*fleetBatch), int(evaluations))
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumCPU(cs []cpuTimes) cpuTimes {
	var s cpuTimes
	for _, c := range cs {
		s.User += c.User
		s.Sys += c.Sys
	}
	return s
}
