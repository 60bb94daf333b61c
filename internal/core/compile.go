package core

import (
	"fmt"
	"math"

	"chet/internal/circuit"
	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
)

// Options configures a compilation.
type Options struct {
	// Scheme is the target FHE scheme.
	Scheme Scheme
	// Scales are the four fixed-point scaling factors (use
	// SelectScales for the profile-guided search).
	Scales htc.Scales
	// SecurityBits is the demanded security level (default 128). Zero keeps
	// the default; a negative value disables the security check entirely,
	// matching the paper's HEAAN runs with hand-written non-standard
	// parameters.
	SecurityBits int
	// RNSPrimeBits sizes the candidate chain moduli for RNS-CKKS
	// (default 40).
	RNSPrimeBits int
	// MagMarginBits is headroom for message magnitude and noise (default 12).
	MagMarginBits float64
	// MinLogN / MaxLogN bound the ring-degree search (defaults 12 / 16).
	MinLogN, MaxLogN int
	// Policies restricts the layout search space (default: all four).
	Policies []htc.LayoutPolicy
	// CostModel overrides the calibrated default for the scheme.
	CostModel *CostModel
	// PowerOfTwoRotationsOnly disables CHET's rotation-keys selection and
	// models the library-default power-of-two keys (the Figure 7 baseline).
	PowerOfTwoRotationsOnly bool
	// CostThreads is T in the T-thread cost model: EstimatedCost becomes
	// the makespan of greedily binning per-op costs onto T threads (the
	// paper's evaluation machine has 16 cores and its cost analysis takes
	// the max across threads). 0 or 1 reproduces the serial sum-of-costs
	// estimate exactly, so existing layout decisions are unchanged.
	CostThreads int
	// Batch packs this many images into the slot vector's batch lanes
	// (nGraph-HE2-style batching): each image occupies a lane of
	// slots/nextPow2(Batch) slots, one evaluation serves the whole batch,
	// and CostPerImage amortizes the estimate by Batch. The layout search
	// only admits ring degrees whose lanes fit the per-image footprint. The
	// client fills the lanes when it encrypts, so batching provisions no
	// rotation key of its own. 0 or 1 means unbatched.
	Batch int
	// Complex packs two images per batch lane — one in the real and one in
	// the imaginary slot component (nGraph-HE2's complex packing) — doubling
	// Batch capacity at constant ring size. Ct-ct products spend one extra
	// Pu depth on the conjugation identity.
	Complex bool
	// Bootstrap enables compiler-placed bootstrapping for circuits deeper
	// than any secure modulus chain (see bootplace.go). Requires SchemeRNS;
	// the modulus chain is laid out from the bootstrap spec instead of the
	// circuit's consumption, and Compiled.BootPlan reports where bootstraps
	// land.
	Bootstrap *BootstrapOptions
}

func (o *Options) fillDefaults() {
	if o.SecurityBits == 0 {
		o.SecurityBits = 128
	}
	if o.RNSPrimeBits == 0 {
		o.RNSPrimeBits = 40
	}
	if o.MagMarginBits == 0 {
		o.MagMarginBits = 12
	}
	if o.MinLogN == 0 {
		o.MinLogN = 12
	}
	if o.MaxLogN == 0 {
		o.MaxLogN = 16
	}
	if len(o.Policies) == 0 {
		o.Policies = append([]htc.LayoutPolicy(nil), htc.AllPolicies...)
	}
	if o.Batch < 1 {
		o.Batch = 1
	}
	if o.Bootstrap != nil {
		// Copy before filling so the caller's struct is never mutated.
		b := *o.Bootstrap
		if b.Window == 0 {
			b.Window = 4
		}
		if b.Floor == 0 {
			b.Floor = 1
		}
		o.Bootstrap = &b
	}
	if o.Scales == (htc.Scales{}) {
		if o.Scheme == SchemeRNS {
			// Prime-aligned scales: every factor is one chain prime, so each
			// product returns to Pc after one rescale and no ciphertext carries
			// scale a rescale cannot remove. Bootstrap mode requires them (see
			// Compile's validation).
			p := math.Exp2(float64(o.RNSPrimeBits))
			o.Scales = htc.Scales{Pc: p, Pw: p, Pu: p, Pm: p}
		} else {
			// Conservative defaults near the paper's 2^40 search start; the
			// profile-guided SelectScales shrinks them per circuit. Masks are
			// encoded as finely as weights: with the factors folded and most
			// masks dropped, the last mask product sets the output precision.
			o.Scales = htc.Scales{
				Pc: math.Exp2(40), Pw: math.Exp2(35), Pu: math.Exp2(35), Pm: math.Exp2(35),
			}
		}
	}
}

// PolicyResult captures the compiler's decisions for one layout policy.
type PolicyResult struct {
	Policy htc.LayoutPolicy

	// Encryption parameters.
	LogN         int
	LogQ         float64 // total ciphertext modulus bits
	RNSChainBits []int   // RNS-CKKS chain prime sizes, q_0 first
	SpecialBits  int     // RNS-CKKS key-switching special prime size (each), sized by chooseSpecialPrimes
	// SpecialPrimes is α, the number of key-switching special primes: a key
	// switch groups α chain primes per digit. The compiler picks the α that
	// minimizes the cost model's total key-switch cost among those the
	// security budget at LogN admits; SpecialTrace lists what it weighed.
	SpecialPrimes int
	SpecialTrace  []SpecialCandidate

	// Rotation keys the circuit needs (slot amounts, sorted).
	Rotations []int
	// RotationOps is the number of primitive rotations executed.
	RotationOps int

	// EstimatedCost is the cost-model latency estimate (microseconds).
	EstimatedCost float64

	// Batch is the number of images packed per evaluation (>= 1) and
	// CostPerImage the amortized estimate EstimatedCost / Batch — the
	// figure of merit for throughput-oriented serving.
	Batch        int
	CostPerImage float64

	// Bootstraps is the number of compiler-placed bootstraps this policy's
	// execution performs (0 without Options.Bootstrap).
	Bootstraps int
}

// KeySwitchDigits returns β = ⌈chain primes / α⌉, the number of digits of
// a switching key over the full chain (0 for schemes without a prime chain);
// a key cut at a lower level has fewer.
func (r PolicyResult) KeySwitchDigits() int {
	if r.SpecialPrimes < 1 {
		return 0
	}
	return (len(r.RNSChainBits) + r.SpecialPrimes - 1) / r.SpecialPrimes
}

// SpecialCandidate is one special-prime count the compiler considered.
type SpecialCandidate struct {
	Alpha int
	// Bits is the size of each of its special primes.
	Bits int
	// KeySwitchCost is the cost model's total over the circuit's key
	// switches (and bootstraps) at this α, in microseconds.
	KeySwitchCost float64
}

// Compiled is the result of compiling a tensor circuit: the optimized
// homomorphic tensor circuit description (best layout policy plus the
// parameters, keys, and scales that realize it) and the per-policy search
// trace.
type Compiled struct {
	Circuit *circuit.Circuit
	// Program is the circuit as the runtime executes it (circuit.Fold): analyzed,
	// priced and recorded by the compiler, executed by every session.
	Program *circuit.Program
	Options Options
	Best    PolicyResult
	Trace   []PolicyResult

	// Nodes is the winning policy's recording run split by circuit node, in
	// execution order: what each kernel costs at compile time, before any
	// runtime trace (chet-compile -explain).
	Nodes []NodeCost

	// Keys is the key plan (RNS only): every switching key the program
	// applies and the highest level it applies it at, from the same
	// recording run. The backend cuts each key there (KeyConfig).
	Keys *hisa.KeyPlan

	// BootPlan is the bootstrap-placement report (Options.Bootstrap set):
	// the spec the chain was laid out for and every placement, attributed
	// to circuit nodes. BuildBackend provisions the runtime bootstrapper
	// from it; BootBackend wraps the backend with the realizing Refresher.
	BootPlan *BootReport
}

// Compile runs CHET's compilation pipeline on a tensor circuit: it rewrites
// the circuit so that constant factors cost no level (circuit.Fold), then for every
// candidate data layout it selects encryption parameters with the
// modulus-consumption analysis, prices the program with the scheme cost
// model, and returns the cheapest policy along with its rotation-key set.
func Compile(c *circuit.Circuit, opts Options) (*Compiled, error) {
	opts.fillDefaults()
	// A factor at or below 1 never grows a scale the rescale protocol can
	// repay, so the analysis would size a chain for a circuit that cannot run.
	sc := opts.Scales
	factors := []float64{sc.Pc, sc.Pw, sc.Pu, sc.Pm}
	for i, f := range factors {
		if !(f > 1 && f < math.Inf(1)) {
			return nil, fmt.Errorf("core: scale %s = %g must be a finite factor > 1", [...]string{"Pc", "Pw", "Pu", "Pm"}[i], f)
		}
	}
	if opts.Bootstrap != nil {
		if opts.Scheme != SchemeRNS {
			return nil, fmt.Errorf("core: bootstrap placement requires the RNS scheme (got %v)", opts.Scheme)
		}
		if opts.Bootstrap.Window < opts.Bootstrap.Floor {
			return nil, fmt.Errorf("core: bootstrap window %d below floor %d: fresh ciphertexts would re-trigger immediately",
				opts.Bootstrap.Window, opts.Bootstrap.Floor)
		}
		// Prime-aligned scales: every fixed-point factor must be one chain
		// prime, so each multiplication repays exactly one level and operand
		// scales at op boundaries are always the base scale. Sub-prime
		// factors let the greedy protocol accumulate scale excess a
		// ciphertext can carry to level 0, where its residue mod q0
		// overflows and the message can no longer be bootstrapped.
		prime := math.Exp2(float64(opts.RNSPrimeBits))
		for _, s := range factors {
			if math.Abs(s-prime) > 1e-6*prime {
				return nil, fmt.Errorf("core: bootstrap placement requires prime-aligned scales (all factors 2^%d, got %v)",
					opts.RNSPrimeBits, opts.Scales)
			}
		}
	}
	prog := circuit.Fold(c)
	out := &Compiled{Circuit: c, Program: prog, Options: opts}
	var firstErr error
	for _, policy := range opts.Policies {
		res, err := compilePolicy(prog.Circuit, policy, opts)
		if err != nil {
			// A policy can be infeasible (e.g. its layout consumes too much
			// modulus for any secure ring degree) while others still work;
			// record the failure and keep searching.
			if firstErr == nil {
				firstErr = fmt.Errorf("policy %v: %w", policy, err)
			}
			continue
		}
		out.Trace = append(out.Trace, res)
	}
	if len(out.Trace) == 0 {
		return nil, fmt.Errorf("core: no layout policy compiles: %w", firstErr)
	}
	best := out.Trace[0]
	for _, r := range out.Trace[1:] {
		if r.EstimatedCost < best.EstimatedCost {
			best = r
		}
	}
	out.Best = best
	if err := record(prog.Circuit, out); err != nil {
		return nil, fmt.Errorf("core: recording run: %w", err)
	}
	return out, nil
}

// runAnalysis executes the circuit under an analysis interpretation,
// converting kernel panics (layout does not fit, modulus exhausted) into
// errors so the parameter search can move to the next ring degree.
func runAnalysis(c *circuit.Circuit, policy htc.LayoutPolicy, opts Options, a *Analysis, sc htc.Scales) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("analysis aborted: %v", r)
		}
	}()
	plan := htc.PlanFor(c, policy)
	plan.Batch = opts.Batch
	plan.Complex = opts.Complex
	in := c.Input.OutShape
	// Encrypting an all-zero image is enough: analysis facts are data-
	// independent.
	img := tensor.New(in...)
	b := a.backend()
	enc := htc.EncryptTensor(b, plan, sc, img)
	htc.Execute(b, c, enc, policy, sc, htc.ExecOptions{})
	return nil
}

func compilePolicy(c *circuit.Circuit, policy htc.LayoutPolicy, opts Options) (PolicyResult, error) {
	var rotKey func(int) bool
	if opts.PowerOfTwoRotationsOnly {
		rotKey = func(int) bool { return false }
	}

	var firstErr error
	for logN := opts.MinLogN; logN <= opts.MaxLogN; logN++ {
		slots := 1 << uint(logN-1)

		// With bootstrapping requested, the chain is laid out from the
		// bootstrap spec instead of the circuit's consumption, and the
		// analysis runs under the runtime's refresh trigger.
		var bootCfg *BootConfig
		if opts.Bootstrap != nil {
			spec, err := bootSpecFor(logN, &opts)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			bootCfg = &BootConfig{Spec: spec, Window: opts.Bootstrap.Window, Floor: opts.Bootstrap.Floor}
		}

		// Pass 1: encryption parameter selection (Section 5.2). The same
		// run collects the rotation set (Section 5.4).
		params := NewAnalysis(AnalysisConfig{
			Scheme:        opts.Scheme,
			Slots:         slots,
			RNSPrimeBits:  opts.RNSPrimeBits,
			MagMarginBits: opts.MagMarginBits,
			RotKey:        rotKey,
			Bootstrap:     bootCfg,
		})
		if err := runAnalysis(c, policy, opts, params, opts.Scales); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue // layout may simply not fit this ring degree
		}

		res := PolicyResult{
			Policy:      policy,
			LogN:        logN,
			LogQ:        math.Ceil(params.PeakLogQ()),
			Rotations:   params.Rotations(),
			RotationOps: params.RotationOps(),
			Batch:       opts.Batch,
		}

		logQP := res.LogQ
		costPrimes := 0.0
		switch {
		case bootCfg != nil:
			// Bootstrap chain: base prime, the working window, the
			// pipeline's own levels, the CoeffToSlot prime. The working
			// band (window primes + live scale + margin) always fits
			// under the pipeline levels above it, but keep the check as
			// a guard against model drift.
			res.RNSChainBits = bootCfg.Spec.ChainBits(bootCfg.Window)
			res.SpecialBits = maxSpecialBits
			res.LogQ = 0
			for _, b := range res.RNSChainBits {
				res.LogQ += float64(b)
			}
			if math.Ceil(params.PeakLogQ()) > res.LogQ {
				if firstErr == nil {
					firstErr = fmt.Errorf("logN %d: peak %0.f bits exceeds bootstrap chain %0.f bits",
						logN, params.PeakLogQ(), res.LogQ)
				}
				continue
			}
			res.Rotations = mergeRotations(res.Rotations, bootCfg.Spec.RotationAmounts())
			res.Bootstraps = params.Bootstraps()
			logQP = res.LogQ + float64(res.SpecialBits)
			costPrimes = float64(len(res.RNSChainBits))
		case opts.Scheme == SchemeRNS:
			consumed := params.ConsumedPrimes()
			baseBits := int(res.LogQ) - consumed*opts.RNSPrimeBits
			base := splitBits(baseBits, 60)
			res.RNSChainBits = base
			for i := 0; i < consumed; i++ {
				res.RNSChainBits = append(res.RNSChainBits, opts.RNSPrimeBits)
			}
			res.SpecialBits = maxSpecialBits
			res.LogQ = 0
			for _, b := range res.RNSChainBits {
				res.LogQ += float64(b)
			}
			logQP = res.LogQ + float64(res.SpecialBits)
			costPrimes = float64(len(res.RNSChainBits))
		}

		if opts.SecurityBits > 0 && float64(MaxLogQ(logN, opts.SecurityBits)) < logQP {
			continue // not secure at this ring degree; grow N
		}
		if opts.Scheme == SchemeRNS {
			chooseSpecialPrimes(&res, params, opts)
		}

		// Pass 2: cost estimation (Section 5.3) at the chosen parameters.
		cost := NewAnalysis(AnalysisConfig{
			Scheme:        opts.Scheme,
			Slots:         slots,
			RNSPrimeBits:  opts.RNSPrimeBits,
			MagMarginBits: opts.MagMarginBits,
			RotKey:        rotKey,
			CostLogQ:      res.LogQ,
			CostPrimes:    costPrimes,
			CostSpecial:   res.SpecialPrimes,
			Model:         opts.CostModel,
			CostThreads:   opts.CostThreads,
			Batch:         opts.Batch,
			Bootstrap:     bootCfg,
		})
		if err := runAnalysis(c, policy, opts, cost, opts.Scales); err != nil {
			return PolicyResult{}, err
		}
		res.EstimatedCost = cost.Cost()
		res.CostPerImage = cost.CostPerImage()
		return res, nil
	}
	if firstErr != nil {
		return PolicyResult{}, fmt.Errorf("no ring degree in [2^%d, 2^%d] works: %w",
			opts.MinLogN, opts.MaxLogN, firstErr)
	}
	return PolicyResult{}, fmt.Errorf("no ring degree in [2^%d, 2^%d] meets %d-bit security",
		opts.MinLogN, opts.MaxLogN, opts.SecurityBits)
}

// chooseSpecialPrimes picks res.SpecialPrimes, and their size
// res.SpecialBits, for the chain the parameter pass just fixed. The ring
// degree is already decided with one 60-bit special prime (α never grows N);
// whatever the security table leaves above logQ at that degree is slack, and
// α special primes share it: each gets min(60, ⌊slack/α⌋) bits (60 with the
// security check off). α = 1 is always a candidate; a larger α is admissible
// only when its P is at least 2^8 times its largest digit, the margin a 60-bit
// special prime has over a 52-bit base prime, which keeps the key switch's
// noise under ModDown's own rounding (ckks.KeySwitchMarginBits; below level
// α-1, where the one digit is partial, ckks takes as many of the special
// primes as that margin needs). Among the admissible α ≤ chain length,
// α is the argmin of the cost model's total key-switch cost, repriced from
// the histogram the parameter pass recorded; ties go to the smaller α.
func chooseSpecialPrimes(res *PolicyResult, params *Analysis, opts Options) {
	model := DefaultCostModel(opts.Scheme)
	if opts.CostModel != nil {
		model = *opts.CostModel
	}
	primes := len(res.RNSChainBits)
	res.SpecialTrace = nil
	best := 0
	for alpha := 1; alpha <= primes; alpha++ {
		bits := maxSpecialBits
		if opts.SecurityBits > 0 {
			bits = min(bits, (MaxLogQ(res.LogN, opts.SecurityBits)-int(res.LogQ))/alpha)
		}
		if alpha > 1 && alpha*bits < largestDigitBits(res.RNSChainBits, alpha)+ckks.KeySwitchMarginBits {
			continue
		}
		c := SpecialCandidate{Alpha: alpha, Bits: bits, KeySwitchCost: params.KeySwitchCost(model, float64(primes), alpha)}
		res.SpecialTrace = append(res.SpecialTrace, c)
		if c.KeySwitchCost < res.SpecialTrace[best].KeySwitchCost {
			best = len(res.SpecialTrace) - 1
		}
	}
	res.SpecialPrimes = res.SpecialTrace[best].Alpha
	res.SpecialBits = res.SpecialTrace[best].Bits
}

// maxSpecialBits is the size of a special prime when the security table
// leaves room for it, and the size the ring degree is chosen with.
const maxSpecialBits = 60

// largestDigitBits is the nominal size of the largest key-switch digit of a
// chain under α: the most bits any group of α consecutive primes, from q_0
// up, carries.
func largestDigitBits(chain []int, alpha int) int {
	most := 0
	for lo := 0; lo < len(chain); lo += alpha {
		sum := 0
		for _, b := range chain[lo:min(lo+alpha, len(chain))] {
			sum += b
		}
		most = max(most, sum)
	}
	return most
}

// splitBits splits a bit budget into primes of at most maxBits each
// (at least 20 bits apiece).
func splitBits(total, maxBits int) []int {
	if total <= 0 {
		return []int{30} // minimal base prime
	}
	n := (total + maxBits - 1) / maxBits
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
	}
	for i := 0; i < total%n; i++ {
		out[i]++
	}
	for i, b := range out {
		if b < 20 {
			out[i] = 20
		}
	}
	return out
}
