package core

import (
	"fmt"
	"math"
	"sort"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
)

// This file is the graph-level scale-management pass. CHET's kernels
// historically decided rescale placement op-locally: every kernel reduced a
// grown scale back to Pc at fixed protocol points (the greedy protocol, now
// htc.GreedyPolicy). That placement is correct but eager — rescaling is one
// of the most expensive HISA instructions, and nGraph-HE2-style lazy
// rescaling shows many sites can defer the reduction and let a later site
// (or decryption, which normalizes by the final scale) absorb the excess.
//
// The pass reuses the compiler's central trick: execute the unmodified
// kernels against the Analysis interpretation of the HISA, but hang a
// recording ScalePolicy on the executor. Each reduce site the kernels hit
// surfaces here with its circuit node, live scale, and consumed modulus; the
// pass decides defer-vs-rescale per site under the modulus budget the greedy
// compilation already proved feasible, executes its own decision (so the
// analysis observes the lazy dataflow), and records the decision keyed by
// (node, quantized scale). The resulting htc.ScalePlan ships inside Compiled
// and replays at runtime through htc.PlanPolicy — identical parameters and
// keys, fewer rescale operations.
//
// Safety: deferral never changes results on the Ref backend (scale is pure
// bookkeeping there) and is budget-checked twice — per site against
// consumed + log2(scale) + margin <= LogQ, and globally by requiring the
// recorded run's PeakLogQ to stay within the greedy compilation's LogQ. If
// the global check fails the plan is dropped and the runtime falls back to
// the greedy protocol wholesale.

// ScaleMode selects how rescale placement is decided for a compilation.
type ScaleMode int

const (
	// ScaleGreedy keeps the op-local protocol at every kernel site (the
	// pre-pass behavior, and the zero value).
	ScaleGreedy ScaleMode = iota
	// ScaleLazy runs the scale-management pass and ships a per-site plan
	// that defers rescales the modulus budget can absorb.
	ScaleLazy
)

func (m ScaleMode) String() string {
	if m == ScaleLazy {
		return "lazy"
	}
	return "greedy"
}

// maxDeferBits bounds how far past the base scale a deferred ciphertext may
// grow before the pass forces a rescale regardless of budget. The bound is a
// cost model, not just a safety rail: it sits deliberately below one default
// RNS prime (~35–40 bits). On the RNS backend every reduce site's excess is a
// whole prime, and deferring it is peak-neutral but keeps a full extra limb
// live through every downstream operation until the merged repayment — the
// per-op cost of that limb exceeds the one rescale call saved, so whole-prime
// deferrals are never taken and the RNS plan matches the greedy waterline.
// Fractional excesses (the fixed-point CKKS/Sim world, where rescale divides
// exactly) ride free and are deferred. Growth past the bound that the local
// budget check missed is caught by the repair loop.
const maxDeferBits = 32.0

// budgetSlackBits is how far past the greedy budget the recorded run's peak
// may float before the repair loop intervenes. Deferral is nearly peak-
// neutral — a deferred rescale lowers consumed modulus by what it adds to
// the live scale — but RNS primes are only near powers of two, and the
// sub-bit drift would otherwise pin every deferral on a strict comparison.
// The slack is paid out of the magnitude margin (default 12 bits).
const budgetSlackBits = 0.5

// ScaleSite is one recorded kernel reduce site — a row of the explain table.
type ScaleSite struct {
	// Node is the circuit node whose kernel hit the site; Name is its
	// "kind:name" label.
	Node int
	Name string
	// ScaleBits is the quantized log2 of the ciphertext scale entering the
	// site (the plan key); LogScale is the exact value.
	ScaleBits int
	LogScale  float64
	// Consumed is the modulus (bits) already consumed when the site runs;
	// Level is the corresponding RNS chain level (-1 for CKKS).
	Consumed float64
	Level    int
	// Decision is what the pass chose for this site.
	Decision htc.ScaleDecision
}

// ScaleReport is the human-facing trace of the scale-management pass,
// backing chet-compile -explain.
type ScaleReport struct {
	// Mode the pass ran in.
	Mode ScaleMode
	// Sites in execution order (serial recording run).
	Sites []ScaleSite
	// Nodes is the recording run split by circuit node, in execution order:
	// what each kernel costs at compile time, before any runtime trace.
	Nodes []NodeCost
	// Deferred and Rescaled tally the decisions across Sites.
	Deferred, Rescaled int
	// PeakLogQ is the recorded run's peak modulus requirement; Budget is the
	// greedy compilation's LogQ it must stay within.
	PeakLogQ, Budget float64
	// Dropped is set when the lazy plan was discarded (budget exceeded):
	// the runtime falls back to the greedy protocol everywhere.
	Dropped bool
}

// NodeCost is one circuit node's share of the recording run: the
// instructions its kernel issued (layout conversions the node demanded
// included, as in a runtime trace's node scopes) and their cost-model price.
type NodeCost struct {
	Kind circuit.OpKind
	Name string
	// Rotations counts primitive rotations; Relin counts ciphertext-
	// ciphertext multiplications, each carrying a relinearization.
	Rotations, MulPlain, Rescale, Relin int
	// Cost is the node's estimated cost (microseconds), bootstraps it
	// triggered included.
	Cost float64
}

// scaleRecorder is the htc.ScalePolicy driving the recording run.
type scaleRecorder struct {
	a      *Analysis
	lazy   bool
	budget float64 // modulus bits the greedy compilation selected
	margin float64 // magnitude margin bits

	decisions map[htc.ScaleKey]htc.ScaleDecision
	conflict  map[htc.ScaleKey]bool
	// pinned holds keys the repair loop forced back to the greedy decision
	// after an earlier recording round overflowed the modulus budget. Pins
	// persist across rounds; everything else resets per round.
	pinned map[htc.ScaleKey]bool
	sites  []ScaleSite
	// excess[i] is sites[i]'s scale growth past its reduce base (bits) — the
	// repair loop's ranking signal.
	excess []float64
}

// reset clears the per-round state ahead of a fresh recording run.
func (r *scaleRecorder) reset(a *Analysis) {
	r.a = a
	r.decisions = map[htc.ScaleKey]htc.ScaleDecision{}
	r.conflict = map[htc.ScaleKey]bool{}
	r.sites = nil
	r.excess = nil
}

// Reduce decides and executes one site. Sites already at base fall through
// without a decision, exactly mirroring PlanPolicy's precheck so the
// recorded sites are the ones runtime will look up.
func (r *scaleRecorder) Reduce(b hisa.Backend, node int, c hisa.Ciphertext, base float64) hisa.Ciphertext {
	s := b.Scale(c)
	if s <= base*1.0001 {
		return c
	}
	key := htc.ScaleKeyFor(node, s)
	logS := math.Log2(s)
	consumed := r.a.ConsumedOf(c)

	decision := htc.ScaleRescale
	if r.lazy && !r.pinned[key] && logS-math.Log2(base) <= maxDeferBits &&
		consumed+logS+r.margin <= r.budget {
		decision = htc.ScaleDefer
	}
	// Two distinct sites can collide on one key (same node, same quantized
	// scale) yet want different decisions when their consumed bits differ.
	// A conflicted key is pinned to the greedy decision — both at record
	// time and, by dropping it from the plan, at runtime.
	if prev, ok := r.decisions[key]; ok && prev != decision {
		r.conflict[key] = true
	}
	if r.conflict[key] {
		decision = htc.ScaleRescale
	}
	r.decisions[key] = decision

	lvl := -1
	if r.a.scheme == SchemeRNS {
		lvl = int(math.Round((r.budget - consumed) / r.a.rnsPrimeBits))
	}
	r.sites = append(r.sites, ScaleSite{
		Node: node, ScaleBits: key.ScaleBits, LogScale: logS,
		Consumed: consumed, Level: lvl, Decision: decision,
	})
	r.excess = append(r.excess, logS-math.Log2(base))
	if decision == htc.ScaleDefer {
		return c
	}
	return htc.GreedyPolicy{}.Reduce(b, node, c, base)
}

// pinWorstDeferral pins the deferred site with the largest scale excess back
// to rescale, returning false when no deferral is left to pin. The per-site
// budget check sees the scale entering a site, but a deferred scale keeps
// growing through downstream multiplications — when the recorded run's peak
// overflows the budget, retiring the largest deferral first shrinks the peak
// fastest.
func (r *scaleRecorder) pinWorstDeferral() bool {
	best, bestExcess := -1, 0.0
	for i, s := range r.sites {
		if s.Decision == htc.ScaleDefer && (best < 0 || r.excess[i] > bestExcess) {
			best, bestExcess = i, r.excess[i]
		}
	}
	if best < 0 {
		return false
	}
	r.pinned[htc.ScaleKey{Node: r.sites[best].Node, ScaleBits: r.sites[best].ScaleBits}] = true
	return true
}

// recordScalePlan executes the compiled circuit once more under a scheme-
// matched analysis with the recording policy and attaches the resulting
// plan (lazy mode) and explain report to comp. The run is serial, so site
// order — and hence every decision — is deterministic.
func recordScalePlan(c *circuit.Circuit, comp *Compiled) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recording run aborted: %v", r)
		}
	}()
	opts := comp.Options
	slots := 1 << uint(comp.Best.LogN-1)
	rec := &scaleRecorder{
		lazy:   opts.ScaleMode == ScaleLazy,
		budget: comp.Best.LogQ,
		margin: opts.MagMarginBits,
		pinned: map[htc.ScaleKey]bool{},
	}

	// The per-site budget check is local — it cannot see that a deferred
	// scale will keep growing through downstream multiplications — so the
	// recording run repairs iteratively: whenever the run's peak modulus
	// requirement overflows the budget, pin the worst deferral back to
	// rescale and re-record. All-pinned reproduces the greedy protocol,
	// whose peak fits the budget by construction, so the loop terminates.
	var a *Analysis
	var nodes []NodeCost
	for {
		a = NewAnalysis(AnalysisConfig{
			Scheme:        opts.Scheme,
			Slots:         slots,
			RNSPrimeBits:  opts.RNSPrimeBits,
			MagMarginBits: opts.MagMarginBits,
			// Priced at the selected parameters, for the per-node table.
			CostLogQ:    comp.Best.LogQ,
			CostPrimes:  float64(len(comp.Best.RNSChainBits)),
			CostSpecial: comp.Best.SpecialPrimes,
			Model:       opts.CostModel,
			// Bootstrap-aware level accounting (greedy-only mode), so the
			// recording run's consumption sees the runtime's resets.
			Bootstrap: comp.bootConfig(),
		})
		rec.reset(a)

		// A Meter around the analysis supplies the per-node instruction
		// tallies for the explain report; ciphertext facts pass through it
		// untouched.
		meter := hisa.NewMeter(a.backend(), nil)
		nodes = nodes[:0]
		var prev hisa.OpCounts
		prevCost := 0.0

		img := tensor.New(c.Input.OutShape...)
		enc := htc.EncryptTensor(meter, img, comp.Plan(), opts.Scales)
		htc.ExecuteOpts(meter, c, enc, comp.Best.Policy, opts.Scales, htc.ExecOptions{
			Scale: rec,
			OnNode: func(n *circuit.Node, _ *htc.CipherTensor) {
				if n.Kind == circuit.OpInput {
					return // issues no instruction
				}
				now := meter.Counts()
				nodes = append(nodes, NodeCost{
					Kind: n.Kind, Name: n.Name,
					Rotations: now.Rotations() - prev.Rotations(),
					MulPlain:  now[hisa.OpMulPlain] - prev[hisa.OpMulPlain],
					Rescale:   now[hisa.OpRescale] - prev[hisa.OpRescale],
					Relin:     now[hisa.OpRelin] - prev[hisa.OpRelin],
					Cost:      a.totalCost - prevCost,
				})
				prev, prevCost = now, a.totalCost
			},
		})
		if !rec.lazy || a.PeakLogQ() <= comp.Best.LogQ+budgetSlackBits || !rec.pinWorstDeferral() {
			break
		}
	}

	names := make(map[int]string, len(c.Nodes))
	for _, n := range c.Nodes {
		names[n.ID] = fmt.Sprintf("%v:%s", n.Kind, n.Name)
	}
	report := &ScaleReport{
		Mode:     opts.ScaleMode,
		Sites:    rec.sites,
		Nodes:    nodes,
		PeakLogQ: a.PeakLogQ(),
		Budget:   comp.Best.LogQ,
	}
	for i := range report.Sites {
		report.Sites[i].Name = names[report.Sites[i].Node]
		if report.Sites[i].Decision == htc.ScaleDefer {
			report.Deferred++
		} else {
			report.Rescaled++
		}
	}
	comp.ScaleReport = report

	if opts.ScaleMode != ScaleLazy {
		return nil
	}
	// Global safety net: the lazy run's peak modulus requirement must fit
	// the parameters the greedy compilation already selected (and proved
	// secure). Otherwise the plan is dropped wholesale — greedy fallback.
	if a.PeakLogQ() > comp.Best.LogQ+budgetSlackBits {
		report.Dropped = true
		return nil
	}
	for k := range rec.conflict {
		delete(rec.decisions, k)
	}
	comp.ScalePlan = &htc.ScalePlan{Decisions: rec.decisions}
	return nil
}

// sortedPlanKeys returns a plan's keys in (node, scaleBits) order for
// deterministic hashing and display.
func sortedPlanKeys(p *htc.ScalePlan) []htc.ScaleKey {
	keys := make([]htc.ScaleKey, 0, len(p.Decisions))
	for k := range p.Decisions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].ScaleBits < keys[j].ScaleBits
	})
	return keys
}
