package main

// compile-zoo: the compiler itself. One operation is one chet.Compile; the
// programs compiled for the CKKS mock are then executed on it and compared
// with the plaintext interpreter. The only workload where core, circuit and
// the htc kernels in their analysis interpretation do all the work and ring
// and ckks do none.

import (
	"context"
	"fmt"
	"time"

	"chet"
)

// zooEntry is one compilation of the zoo.
type zooEntry struct {
	model  string
	scheme chet.Scheme
	boot   bool // compile with bootstrap placement (window 4)
	exec   bool // execute the compiled program on the CKKS mock and check it
}

func (e zooEntry) group() string {
	switch {
	case e.boot:
		return "boot"
	case e.scheme == chet.SchemeCKKS:
		return "ckks"
	}
	return "rns"
}

func (e zooEntry) options() chet.Options {
	o := chet.Options{Scheme: e.scheme}
	if e.boot {
		o.Bootstrap = &chet.BootstrapOptions{Window: 4}
	}
	return o
}

// zoo lists the compilations of one pass. Three networks of the paper's
// Table 3 are compiled for RNS-CKKS at the default 128-bit security, which is
// where parameter selection has to work hardest: two sizes of LeNet-5 and
// SqueezeNet-CIFAR, the deepest (N=2^16, a 41-prime chain, Fire modules with
// concatenation). The two networks the mock executes in about a second are
// also compiled for, and run on, the CKKS mock; NN-20 exercises bootstrap
// placement. What the time cap cut is in the README: LeNet-5-large and
// Industrial, and the CKKS compilations and mock executions of the large
// networks. A pass takes about 6 s here, and a run makes at least three.
func zoo(cfg runConfig) []zooEntry {
	if cfg.Smoke {
		return []zooEntry{
			{model: "LeNet-tiny", scheme: chet.SchemeRNS},
			{model: "LeNet-tiny", scheme: chet.SchemeCKKS, exec: true},
			{model: "LeNet-5-small", scheme: chet.SchemeCKKS, exec: true},
		}
	}
	return []zooEntry{
		{model: "LeNet-5-small", scheme: chet.SchemeRNS},
		{model: "LeNet-5-medium", scheme: chet.SchemeRNS},
		{model: "SqueezeNet-CIFAR", scheme: chet.SchemeRNS},
		{model: "LeNet-5-small", scheme: chet.SchemeCKKS, exec: true},
		{model: "LeNet-5-medium", scheme: chet.SchemeCKKS, exec: true},
		{model: "NN-20", scheme: chet.SchemeRNS, boot: true},
	}
}

// buildZoo constructs the paper's five networks once, and whatever else the
// entries name (chet.Model builds all five for every call).
func buildZoo(entries []zooEntry) (map[string]*chet.NetModel, error) {
	models := map[string]*chet.NetModel{}
	for _, m := range chet.Models() {
		models[m.Name] = m
	}
	for _, e := range entries {
		if models[e.model] != nil {
			continue
		}
		m, err := chet.Model(e.model)
		if err != nil {
			return nil, err
		}
		models[e.model] = m
	}
	return models, nil
}

// compilePass compiles every entry once. It returns the compilations and the
// seconds spent per group; a failed compilation is a failed operation.
func compilePass(ctx context.Context, cfg runConfig, entries []zooEntry, models map[string]*chet.NetModel, t *tally) ([]*chet.Compiled, map[string]float64, error) {
	comps := make([]*chet.Compiled, len(entries))
	seconds := map[string]float64{}
	for i, e := range entries {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		collectedHeap() // every compilation starts as it would in a fresh chet-compile
		t0 := time.Now()
		comp, err := chet.Compile(models[e.model].Circuit, e.options())
		seconds[e.group()] += time.Since(t0).Seconds()
		t.attempted++
		if err != nil {
			cfg.logf("compiling %s for %v: %v", e.model, e.scheme, err)
			t.failed++
			continue
		}
		comps[i] = comp
	}
	return comps, seconds, nil
}

func runCompileZoo(ctx context.Context, cfg runConfig, res *runResult, t *tally) error {
	m := res.Metrics
	entries := zoo(cfg)
	proc := startProcWindow()

	// Cheap things are done five times and their median reported.
	reps := 5
	if cfg.Smoke {
		reps = 1
	}

	// Set-up is building the networks (weights included).
	var models map[string]*chet.NetModel
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if models, err = buildZoo(entries); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.put("setup_s", medianOf(setups), len(setups))

	// The timed window: whole passes over the zoo, at least three. One pass
	// is the latency sample, because the networks differ by two orders of
	// magnitude and a median over single compilations would ignore the large
	// ones.
	var comps []*chet.Compiled
	stable := 1.0
	groups := map[string][]float64{}
	win := openWindow(cfg.Seconds, 3)
	var last float64
	for pass := 0; win.fits(last); pass++ {
		c, seconds, err := compilePass(ctx, cfg, entries, models, t)
		if err != nil {
			return err
		}
		var total float64
		for g, s := range seconds {
			groups[g] = append(groups[g], s)
			total += s
		}
		t.latencies = append(t.latencies, total)
		last = total
		if comps == nil {
			comps = c
		} else if !sameFingerprints(comps, c) {
			res.Notes = append(res.Notes, "compiling the same circuit twice gave different fingerprints")
			stable = 0
			t.failed++
		}
	}
	cfg.logf("%d passes over %d compilations, median %.2fs", len(t.latencies), len(entries), medianOf(t.latencies))
	// The compiler's peak memory, before the mock executions (which verify
	// the programs and allocate several times as much) can raise it.
	rss, err := peakRSSMiB("self")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	m.put("peak_rss_mib", rss, 1)

	// Execute what was compiled for the mock and compare with plaintext. A
	// wrong prediction fails the compilation that produced the program.
	var execS float64
	var programs int
	var serials []*serialResult
	var first *chet.Session
	for i, e := range entries {
		if !e.exec || comps[i] == nil {
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		sess, err := newSession(comps[i], cfg.Seed)
		if err != nil {
			return fmt.Errorf("mock backend for %s: %w", e.model, err)
		}
		if first == nil {
			first = sess
		}
		model := models[e.model]
		exec := &tally{}
		if cfg.Trace {
			sess.Workers = 1
			op := newOperation(sess, model.Circuit, chet.SyntheticImage(model.InputShape, imageSeed(cfg.Seed, i)))
			s, err := serialPasses(op, 1, exec, res)
			if err != nil {
				return err
			}
			serials = append(serials, s)
			execS += s.untraced[0]
			programs++
		} else {
			// Several images per program; the program's time is their median.
			sess.Workers = inferWorkers()
			for k := 0; k < reps; k++ {
				op := newOperation(sess, model.Circuit, chet.SyntheticImage(model.InputShape, imageSeed(cfg.Seed, 8*i+k)))
				collectedHeap()
				got, _, st, err := op.run()
				if err != nil {
					cfg.logf("executing %s on the mock: %v", e.model, err)
					exec.fail()
					continue
				}
				exec.score(got, op.want, st.total())
			}
			if len(exec.latencies) > 0 {
				execS += medianOf(exec.latencies)
				programs++
			}
		}
		if exec.failed > 0 {
			t.failed++
		}
		t.images += exec.images
		t.maxErr = max(t.maxErr, exec.maxErr)
	}
	// One image per program in the time the programs' executions take.
	if execS > 0 {
		m.put("images_per_s", float64(programs)/execS, t.images)
	}
	if !cfg.Trace {
		return nil
	}

	// Per-layer: the compiler's time by target, what it chose, and the mock
	// executions traced serially.
	var total float64
	for g, xs := range groups {
		m.put("core.compile_s."+g, medianOf(xs), len(xs))
		total += medianOf(xs)
	}
	m.put("core.compile_s", total, len(t.latencies))
	m.put("core.fingerprint_stable", stable, len(t.latencies))
	var logN, chain, keys int
	var firstRNS *chet.Compiled
	for i, c := range comps {
		if c == nil {
			continue
		}
		logN = max(logN, c.Best.LogN)
		chain = max(chain, len(c.Best.RNSChainBits))
		keys += len(c.Best.Rotations)
		if firstRNS == nil && entries[i].scheme == chet.SchemeRNS {
			firstRNS = c
		}
	}
	m.put("core.logn", float64(logN), len(comps))
	m.put("core.chain_primes", float64(chain), len(comps))
	m.put("core.rotation_keys", float64(keys), len(comps))
	if len(serials) > 0 {
		merged := mergeSerial(serials)
		merged.report(m, 0)
		merged.reportStages(m)
		m.put("htc.sim_exec_s", execS, len(serials))
	}
	if first != nil {
		keygenStart := time.Now()
		if _, err := newSession(first.Compiled, cfg.Seed); err != nil {
			return err
		}
		m.put("ckks.keygen_s", time.Since(keygenStart).Seconds(), 1)
		unitCosts(first, first.Compiled, m)
	}
	if firstRNS != nil {
		if err := ringLayer(firstRNS, m); err != nil {
			return err
		}
	}
	m.put("proc.unaccounted_share", 0, 1)
	proc.report(m, cpuTimes{})
	return nil
}

func sameFingerprints(a, b []*chet.Compiled) bool {
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] != nil && a[i].FingerprintHex() != b[i].FingerprintHex() {
			return false
		}
	}
	return true
}

// mergeSerial adds up the serial passes of several programs, as if they had
// been one long inference.
func mergeSerial(rs []*serialResult) *serialResult {
	out := &serialResult{
		untraced: []float64{0}, traced: []float64{0}, enc: []float64{0}, dec: []float64{0},
		pass:  tracedPass{Ops: map[string]opTotal{}, Kernels: map[string]float64{}},
		input: rs[0].input,
	}
	for _, r := range rs {
		out.untraced[0] += medianOf(r.untraced)
		out.traced[0] += medianOf(r.traced)
		out.enc[0] += medianOf(r.enc)
		out.dec[0] += medianOf(r.dec)
		out.allocMiB += r.allocMiB
		out.pass.Spans += r.pass.Spans
		out.pass.Dropped += r.pass.Dropped
		for op, t := range r.pass.Ops {
			sum := out.pass.Ops[op]
			sum.Count += t.Count
			sum.Seconds += t.Seconds
			out.pass.Ops[op] = sum
		}
		for k, s := range r.pass.Kernels {
			out.pass.Kernels[k] += s
		}
	}
	return out
}
