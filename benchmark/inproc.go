package main

// secure-tiny and lenet5-small: one chet.Session in this process, real
// RNS-CKKS, closed loop of Encrypt → Infer → Decrypt. The two differ only in
// the model and the compile options, which put them at opposite ends:
// secure-tiny moves megabytes per polynomial on a ring of 2^15, lenet5-small
// issues thousands of instructions on a ring of 2^11 that fits the cache.

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"time"

	"chet"
)

// inprocSpec is what distinguishes the in-process workloads.
type inprocSpec struct {
	model string
	opts  chet.Options
	// warmups are untimed inferences before the timed window. The first
	// inference of a session builds key forms lazily and the allocator's
	// pools fill over the next ones; the count is where single samples stop
	// falling on this machine class.
	warmups int
	// minOps is the least number of timed operations; where one operation
	// takes seconds it keeps the median from resting on one or two samples.
	minOps int
	// secure demands that the compiler chose 128-bit parameters on a ring of
	// at least 2^14, so the workload cannot silently become a toy.
	secure bool
	// regret measures every layout policy, not only the chosen one.
	regret bool
}

func inprocSpecFor(cfg runConfig) inprocSpec {
	insecure := chet.Options{Scheme: chet.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13}
	if cfg.Smoke {
		return inprocSpec{model: "LeNet-tiny", opts: insecure, minOps: 1, regret: cfg.Workload == "lenet5-small"}
	}
	if cfg.Workload == "secure-tiny" {
		return inprocSpec{model: "LeNet-tiny", opts: chet.Options{Scheme: chet.SchemeRNS}, warmups: 2, minOps: 3, secure: true}
	}
	return inprocSpec{model: "LeNet-5-small", opts: insecure, warmups: 2, minOps: 3, regret: true}
}

// inferWorkers is the worker-pool size of an untraced inference.
func inferWorkers() int { return min(runtime.NumCPU(), 4) }

// operation is one closed-loop request against a session: encrypt the
// images, infer, decrypt, and compare with the plaintext interpreter's
// predictions.
type operation struct {
	sess *chet.Session
	request
}

// request is a set of images with the plaintext interpreter's predictions.
type request struct{ imgs, want []*chet.Tensor }

// newOperation prepares a request for imgs; a single image uses the
// unbatched Encrypt/Decrypt path, several use the batch lanes.
func newOperation(sess *chet.Session, circuit *chet.Circuit, imgs ...*chet.Tensor) operation {
	op := operation{sess: sess, request: request{imgs: imgs}}
	for _, img := range imgs {
		op.want = append(op.want, circuit.Evaluate(img))
	}
	return op
}

func (op operation) encrypt() *chet.CipherTensor {
	if len(op.imgs) == 1 {
		return op.sess.Encrypt(op.imgs[0])
	}
	return op.sess.EncryptBatch(op.imgs)
}

func (op operation) decrypt(out *chet.CipherTensor) []*chet.Tensor {
	if len(op.imgs) == 1 {
		return []*chet.Tensor{op.sess.Decrypt(out)}
	}
	return op.sess.DecryptBatch(out, len(op.imgs))
}

// stageTimes are the seconds one operation spent in each client-visible stage.
type stageTimes struct{ enc, infer, dec float64 }

func (s stageTimes) total() float64 { return s.enc + s.infer + s.dec }

// run executes the operation once. It returns the input ciphertext too, so a
// traced pass can replay the same inference. A panic inside the library is
// reported as an error.
func (op operation) run() (got []*chet.Tensor, ct *chet.CipherTensor, st stageTimes, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("inference panicked: %v", r)
		}
	}()
	t0 := time.Now()
	ct = op.encrypt()
	t1 := time.Now()
	out := op.sess.Infer(ct)
	t2 := time.Now()
	got = op.decrypt(out)
	t3 := time.Now()
	return got, ct, stageTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}, nil
}

// warmUp runs n untimed operations on images no timed operation uses.
func warmUp(sess *chet.Session, model *chet.NetModel, seed uint64, n int) error {
	for k := 0; k < n; k++ {
		op := operation{sess: sess, request: request{imgs: []*chet.Tensor{chet.SyntheticImage(model.InputShape, imageSeed(seed, -1-k))}}}
		if _, _, _, err := op.run(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func runInProcess(ctx context.Context, cfg runConfig, res *runResult, t *tally) error {
	spec := inprocSpecFor(cfg)
	model, err := chet.Model(spec.model)
	if err != nil {
		return err
	}
	if cfg.Trace {
		return traceInProcess(ctx, cfg, spec, model, res, t)
	}
	m := res.Metrics

	setupStart := time.Now()
	comp, err := chet.Compile(model.Circuit, spec.opts)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	if err := checkSecure(spec, comp); err != nil {
		return err
	}
	sess, err := newSession(comp, cfg.Seed)
	if err != nil {
		return fmt.Errorf("key generation: %w", err)
	}
	sess.Workers = inferWorkers()
	if err := warmUp(sess, model, cfg.Seed, spec.warmups); err != nil {
		return err
	}
	m.put("setup_s", time.Since(setupStart).Seconds(), 1)
	cfg.logf("set up in %.2fs (N=2^%d, %d chain primes, %d rotation keys, layout %v)",
		m["setup_s"].Value, comp.Best.LogN, len(comp.Best.RNSChainBits), len(comp.Best.Rotations), comp.Best.Policy)

	win := openWindow(cfg.Seconds, spec.minOps)
	var last, busy float64
	for k := 0; win.fits(last); k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		op := newOperation(sess, model.Circuit, chet.SyntheticImage(model.InputShape, imageSeed(cfg.Seed, k)))
		opStart := time.Now()
		collectedHeap()
		got, _, st, err := op.run()
		last = time.Since(opStart).Seconds()
		busy += st.total()
		if err != nil {
			cfg.logf("operation %d: %v", k, err)
			t.fail()
			continue
		}
		t.score(got, op.want, st.total())
	}
	// One client in a closed loop: the window that counts is the time spent
	// in operations, not the collections between them.
	if busy > 0 {
		m.put("images_per_s", float64(t.images)/busy, t.attempted)
	}
	return nil
}

// collectedHeap runs a garbage collection, so that the operation after it
// starts as testing.B starts a benchmark. Without it an inference is fast or
// slow by where the collector happens to be: at N=2^15 a cycle frees
// gigabytes, an inference that reuses them takes 2.7 s and one that has to
// fault fresh pages in takes 5 to 6 s, and a process reaches the steady mix
// of the two only after more inferences than a run has time for. A collected
// heap is the state a long-running process is in most of the time; what
// growing the heap costs still shows in setup_s and proc.sys_cpu_share.
func collectedHeap() { runtime.GC() }

// checkSecure asserts the parameters secure-tiny exists to measure.
func checkSecure(spec inprocSpec, comp *chet.Compiled) error {
	if !spec.secure {
		return nil
	}
	if bits := comp.Options.SecurityBits; bits < 128 {
		return fmt.Errorf("compiled at %d-bit security, want 128", bits)
	}
	if comp.Best.LogN < 14 {
		return fmt.Errorf("compiler chose N=2^%d, want at least 2^14", comp.Best.LogN)
	}
	return nil
}

// traceInProcess is the per-layer run: every phase is serial (Workers = 1) so
// that kernel scopes tile the inference and instruction times add up.
func traceInProcess(ctx context.Context, cfg runConfig, spec inprocSpec, model *chet.NetModel, res *runResult, t *tally) error {
	m := res.Metrics
	proc := startProcWindow()

	comp, err := compileLayer(model, spec.opts, m)
	if err != nil {
		return err
	}
	if err := checkSecure(spec, comp); err != nil {
		return err
	}
	keygenStart := time.Now()
	sess, err := newSession(comp, cfg.Seed)
	if err != nil {
		return fmt.Errorf("key generation: %w", err)
	}
	m.put("ckks.keygen_s", time.Since(keygenStart).Seconds(), 1)
	sess.Workers = 1
	if err := warmUp(sess, model, cfg.Seed, spec.warmups); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	passes := 2
	if spec.secure || cfg.Smoke {
		passes = 1 // one serial inference on the 2^15 ring costs what several do elsewhere
	}
	op := newOperation(sess, model.Circuit, chet.SyntheticImage(model.InputShape, imageSeed(cfg.Seed, 0)))
	serial, err := serialPasses(op, passes, t, res)
	if err != nil {
		return err
	}
	serial.report(m, comp.Best.EstimatedCost)
	serial.reportStages(m)
	unitCosts(sess, comp, m)
	if err := ringLayer(comp, m); err != nil {
		return err
	}
	if err := wireLayer(serial.input, 1, m); err != nil {
		return err
	}
	// In one process the three stages are the whole operation.
	m.put("proc.unaccounted_share", 0, 1)
	if spec.regret {
		if err := layoutRegret(ctx, cfg, spec, model, comp, sess, m); err != nil {
			return err
		}
	}
	proc.report(m, cpuTimes{})
	return nil
}

// compileLayer compiles the model three times and records the core metrics
// of the result: median compile time, the parameters chosen, and whether the
// compilations agree on the fingerprint.
func compileLayer(model *chet.NetModel, opts chet.Options, m metricSet) (*chet.Compiled, error) {
	var comp *chet.Compiled
	var times []float64
	stable := 1.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := chet.Compile(model.Circuit, opts)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if comp != nil && c.FingerprintHex() != comp.FingerprintHex() {
			stable = 0
		}
		comp = c
	}
	m.put("core.compile_s", medianOf(times), len(times))
	m.put("core.fingerprint_stable", stable, len(times))
	m.put("core.logn", float64(comp.Best.LogN), 1)
	m.put("core.chain_primes", float64(len(comp.Best.RNSChainBits)), 1)
	m.put("core.rotation_keys", float64(len(comp.Best.Rotations)), 1)
	return comp, nil
}

// serialResult is what the serial untraced and traced passes of a session
// measured.
type serialResult struct {
	untraced, traced []float64 // wall of each Infer
	enc, dec         []float64
	pass             tracedPass         // the last traced pass
	input            *chet.CipherTensor // the last encrypted input
	allocMiB         float64            // heap allocated by the last untraced operation
}

// serialPasses runs op `passes` times untraced (scored, with stage times) and
// replays each inference traced, alternating so that drift on the machine
// hits both alike. The session's Workers is 1.
func serialPasses(op operation, passes int, t *tally, res *runResult) (*serialResult, error) {
	r := &serialResult{}
	var prevCounts map[string]int64
	for k := 0; k < passes; k++ {
		collectedHeap()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, ct, st, err := op.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("serial inference: %w", err)
		}
		t.score(got, op.want, st.total())
		r.allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		r.enc = append(r.enc, st.enc)
		r.untraced = append(r.untraced, st.infer)
		r.dec = append(r.dec, st.dec)
		r.input = ct

		collectedHeap()
		var wall float64
		r.pass = traceSession(op.sess, func() {
			t0 := time.Now()
			op.sess.Infer(ct)
			wall = time.Since(t0).Seconds()
		})
		r.traced = append(r.traced, wall)
		counts := map[string]int64{}
		for name, o := range r.pass.Ops {
			counts[name] = o.Count
		}
		if prevCounts != nil && !sameCounts(prevCounts, counts) {
			res.Notes = append(res.Notes, "instruction counts differ between traced passes of one program")
		}
		prevCounts = counts
	}
	return r, nil
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// opGroups folds the tracer's mnemonics into the instruction kinds reported.
var opGroups = map[string][]string{
	"rotate":    {"rotl", "rotr"},
	"mul":       {"mul"},
	"mulplain":  {"mulplain"},
	"mulscalar": {"mulscalar"},
	"rescale":   {"rescale"},
	"relin":     {"relin"},
	"add":       {"add", "sub", "addplain", "subplain", "addscalar", "subscalar"},
}

// kernelGroups folds circuit op kinds into the kernel families reported.
var kernelGroups = map[string][]string{
	"conv":  {"conv2d"},
	"dense": {"dense"},
	"act":   {"activation", "polyeval"},
	"pool":  {"avgpool2d", "globalavgpool2d"},
}

// report records the hisa, htc, telemetry and cost-model metrics of the serial
// passes. Times are of the last traced pass, whose wall is tracedWall; counts
// are exact. estimatedUS is the compiler's serial estimate of one inference
// in microseconds, which the untraced serial inference is what it predicts
// (0 where the backend is a mock the estimate does not describe).
func (r *serialResult) report(m metricSet, estimatedUS float64) {
	tracedWall := r.traced[len(r.traced)-1]
	var opSeconds float64
	for group, names := range opGroups {
		var n int64
		var s float64
		for _, name := range names {
			n += r.pass.Ops[name].Count
			s += r.pass.Ops[name].Seconds
		}
		m.put("hisa.ops."+group, float64(n), 1)
		// The tracer marks a relinearization inside the multiplication or the
		// fused rescale that performs it, so relin has a count but no time.
		if group != "relin" {
			m.put("hisa.time_s."+group, s, int(n))
		}
	}
	for _, o := range r.pass.Ops {
		opSeconds += o.Seconds
	}
	var kernelSeconds float64
	for _, s := range r.pass.Kernels {
		kernelSeconds += s
	}
	for group, kinds := range kernelGroups {
		var s float64
		for _, kind := range kinds {
			s += r.pass.Kernels[kind]
		}
		m.put("htc.kernel_s."+group, s, 1)
	}
	m.put("htc.serial_infer_s", medianOf(r.untraced), len(r.untraced))
	m.put("htc.self_s", tracedWall-opSeconds, 1)
	m.put("htc.tile_ratio", kernelSeconds/tracedWall, 1)
	m.put("ring.alloc_mib_per_infer", r.allocMiB, 1)
	m.put("telemetry.overhead_ratio", medianOf(r.traced)/medianOf(r.untraced), len(r.traced))
	m.put("telemetry.spans", float64(r.pass.Spans), 1)
	m.put("telemetry.dropped", float64(r.pass.Dropped), 1)
	m.put("core.cost_est_ratio", estimatedUS/1e6/medianOf(r.untraced), 1)
}

// reportStages records the client's encrypt and decrypt times of the serial
// operations.
func (r *serialResult) reportStages(m metricSet) {
	m.put("ckks.encrypt_s", medianOf(r.enc), len(r.enc))
	m.put("ckks.decrypt_s", medianOf(r.dec), len(r.dec))
}

// probe times fn (after one untimed call that fills lazy caches) up to five
// times, stopping early once two seconds are spent, and returns the median
// in milliseconds with the number of timed calls.
func probe(fn func()) (ms float64, n int) {
	fn()
	var xs []float64
	start := time.Now()
	for len(xs) < 5 && (len(xs) < 2 || time.Since(start) < 2*time.Second) {
		t0 := time.Now()
		fn()
		xs = append(xs, time.Since(t0).Seconds()*1e3)
	}
	return medianOf(xs), len(xs)
}

// unitCosts records the cost of single instructions through Session.Backend,
// at the workload's own ring and the level of a fresh ciphertext.
func unitCosts(sess *chet.Session, comp *chet.Compiled, m metricSet) {
	b := sess.Backend
	vec := make([]float64, b.Slots())
	for i := range vec {
		vec[i] = float64(i%7) / 7
	}
	scale := comp.Options.Scales.Pc
	x := b.Encrypt(b.Encode(vec, scale))
	y := b.Encrypt(b.Encode(vec, scale))
	pt := b.Encode(vec, comp.Options.Scales.Pw)

	ms, n := probe(func() { b.Mul(x, y) })
	m.put("ckks.mul_relin_ms", ms, n)
	ms, n = probe(func() { b.MulPlain(x, pt) })
	m.put("ckks.mulplain_ms", ms, n)
	prod := b.MulPlain(x, pt)
	ub := new(big.Int).Lsh(big.NewInt(1), 62)
	if d := b.MaxRescale(prod, ub); d.Cmp(big.NewInt(1)) > 0 {
		ms, n = probe(func() { b.Rescale(prod, d) })
		m.put("ckks.rescale_ms", ms, n)
	}
	rots := comp.Best.Rotations
	if len(rots) > 8 {
		rots = rots[:8]
	}
	if len(rots) > 0 {
		ms, n = probe(func() {
			for _, k := range rots {
				b.RotLeft(x, k)
			}
		})
		m.put("ckks.rotate_ms", ms/float64(len(rots)), n*len(rots))
		ms, n = probe(func() { rotateMany(b, x, rots) })
		m.put("ckks.rotate_hoisted_ms", ms/float64(len(rots)), n*len(rots))
	}
}

// ringLayer records the NTT times of a full-chain polynomial in the ring an
// RNS compilation selected.
func ringLayer(comp *chet.Compiled, m metricSet) error {
	fwd, inv, err := nttMicros(comp, 5)
	if err != nil {
		return err
	}
	m.put("ring.ntt_us", fwd, 5)
	m.put("ring.intt_us", inv, 5)
	return nil
}

// wireLayer records the size and the codec times of the request frame that
// carries enc with count images. A workload that sent real requests has
// already recorded the size it saw on the socket.
func wireLayer(enc *chet.CipherTensor, count int, m metricSet) error {
	encMS, decMS, bytes, err := wireCodec(enc, count, 5)
	if err != nil {
		return err
	}
	m.put("wire.encode_ms", encMS, 5)
	m.put("wire.decode_ms", decMS, 5)
	if _, ok := m["wire.request_kib"]; !ok {
		m.put("wire.request_kib", float64(bytes)/1024, 1)
	}
	return nil
}

// layoutRegret measures one inference loop under every layout policy the
// compiler priced and compares the chosen policy's latency with the fastest:
// regret 1 means the cost model picked the measured winner. Each policy gets
// its own compilation and keys, one warm-up and one timed inference on the
// untraced worker pool (the time cap's first cut: the issue asked for two).
func layoutRegret(ctx context.Context, cfg runConfig, spec inprocSpec, model *chet.NetModel,
	chosen *chet.Compiled, chosenSess *chet.Session, m metricSet) error {
	op := operation{request: request{imgs: []*chet.Tensor{chet.SyntheticImage(model.InputShape, imageSeed(cfg.Seed, 0))}}}
	measure := func(s *chet.Session) (float64, error) {
		s.Workers = inferWorkers()
		op.sess = s
		if _, _, _, err := op.run(); err != nil { // warm-up
			return 0, err
		}
		collectedHeap()
		_, _, st, err := op.run()
		return st.total(), err
	}
	var est, got []float64
	var chosenLatency float64
	for _, pr := range chosen.Trace {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		sess := chosenSess
		if pr.Policy != chosen.Best.Policy {
			opts := spec.opts
			opts.Policies = []chet.LayoutPolicy{pr.Policy}
			comp, err := chet.Compile(model.Circuit, opts)
			if err != nil {
				return fmt.Errorf("compile under layout %v: %w", pr.Policy, err)
			}
			if sess, err = newSession(comp, cfg.Seed); err != nil {
				return fmt.Errorf("key generation under layout %v: %w", pr.Policy, err)
			}
		}
		latency, err := measure(sess)
		if err != nil {
			return fmt.Errorf("layout %v: %w", pr.Policy, err)
		}
		cfg.logf("layout %-18v estimated %8.1f ms, measured %.3f s", pr.Policy, pr.EstimatedCost/1000, latency)
		est = append(est, pr.EstimatedCost)
		got = append(got, latency)
		if pr.Policy == chosen.Best.Policy {
			chosenLatency = latency
		}
	}
	fastest := got[0]
	for _, g := range got {
		fastest = math.Min(fastest, g)
	}
	m.put("core.layout_regret", chosenLatency/fastest, len(got))
	m.put("core.layout_rank_spearman", spearman(est, got), len(got))
	return nil
}
