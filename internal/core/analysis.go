package core

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"chet/internal/hisa"
)

// Analysis is the compiler's reinterpretation of the HISA (Section 5.1): it
// implements hisa.Backend, but its ciphertexts carry dataflow facts instead
// of encrypted data. Executing the unmodified tensor kernels against it
// unrolls the circuit's dataflow graph on the fly and composes the per-
// instruction transfer functions, yielding:
//
//   - the modulus consumed by rescaling and the peak modulus requirement
//     (encryption parameter selection, Section 5.2),
//   - the estimated execution cost under a scheme cost model when totals
//     from a prior parameter pass are supplied (layout selection, 5.3),
//   - the set of rotation steps performed (rotation keys selection, 5.4).
type Analysis struct {
	scheme Scheme
	slots  int
	n      float64

	// rnsPrimeBits is the idealized size of the pre-generated candidate
	// moduli list for RNS-CKKS (the paper's footnote: 60-bit SEAL primes;
	// we default to 40-bit primes matching the runtime's scale regime).
	rnsPrimeBits float64

	// magMarginBits bounds log2 of message magnitude plus noise headroom.
	magMarginBits float64

	// rotKey reports whether a single-step rotation key exists; nil means
	// all keys exist (CHET provisions exactly the keys the circuit needs).
	rotKey func(int) bool

	// Results of the parameter analysis.
	consumedFinal float64 // log2 of modulus consumed on the output path
	peakNeed      float64 // max over live ciphertexts of consumed+scale+margin
	rotations     map[int]int
	// keySwitches counts every key switch by kind and by the chain primes
	// its operand had consumed (the slice index): enough to reprice the
	// circuit's key-switch work for any special-prime count without running
	// it again.
	keySwitches [numKsKinds][]int

	// Cost estimation (active when totals is non-nil).
	totals    *costTotals
	model     CostModel
	totalCost float64
	// threads is T in the T-thread cost model; opCosts records per-op
	// costs for the makespan computation when threads > 1.
	threads int
	opCosts []float64
	// batch amortizes the total cost across packed images (>= 1).
	batch int

	// boot, when non-nil, makes the analysis a hisa.BootstrapBackend: run
	// under the runtime's hisa.Refresher (see backend), every refresh it
	// triggers is recorded as a placement.
	boot *bootRun
}

// bootRun is the bootstrap-placement state of one analysis run.
type bootRun struct {
	cfg BootConfig
	// cost is one bootstrap's cost-model estimate (0 without cost totals).
	cost       float64
	placements []BootPlacement
}

// costTotals fixes the overall modulus so per-op costs can use the current
// modulus size.
type costTotals struct {
	logQ   float64 // CKKS: total modulus bits
	primes float64 // RNS: total chain primes
	alpha  float64 // RNS: special primes (chain primes per key-switch digit)
}

// ksKind is how the cost model prices a key switch.
type ksKind int

const (
	ksRotate     ksKind = iota // CostModel.Rotate: a rotation or conjugation on its own
	ksHoistSetup               // CostModel.RotateHoistedSetup: a hoisted batch's decomposition
	ksHoistStep                // CostModel.RotateHoistedStep: one amount of a hoisted batch
	ksCtMul                    // CostModel.CtMul: the relinearization of a product
	numKsKinds
)

// analysisCT is the dataflow fact attached to each ciphertext.
type analysisCT struct {
	scale    float64
	consumed float64 // log2 of modulus consumed so far (CKKS bits; RNS primes*bits)
}

type analysisPT struct{ scale float64 }

// AnalysisConfig parameterizes an analysis run.
type AnalysisConfig struct {
	Scheme        Scheme
	Slots         int
	RNSPrimeBits  int
	MagMarginBits float64
	// RotKey restricts available single-step rotation keys (nil = all).
	RotKey func(int) bool
	// CostTotals enables cost estimation: total modulus bits (CKKS) or
	// total chain primes (RNS) from a prior parameter pass.
	CostLogQ   float64
	CostPrimes float64
	// CostSpecial is the RNS special-prime count α the key switches are
	// priced at (0 means 1).
	CostSpecial int
	Model       *CostModel
	// CostThreads is T in the T-thread cost model (see LPTMakespan);
	// values <= 1 keep the serial sum-of-costs estimate.
	CostThreads int
	// Batch is the number of images packed per evaluation; CostPerImage
	// divides the total estimate by it. Values <= 1 mean unbatched.
	Batch int
	// Bootstrap enables bootstrap-aware level accounting: the analysis
	// reports each ciphertext's remaining level (Window minus consumed chain
	// primes) as its budget and executes under hisa.Refresher with Floor, so
	// the compiler's placements are the refreshes the runtime performs.
	Bootstrap *BootConfig
}

// NewAnalysis creates an analysis interpretation of the HISA.
func NewAnalysis(cfg AnalysisConfig) *Analysis {
	if cfg.Slots <= 0 || cfg.Slots&(cfg.Slots-1) != 0 {
		panic(fmt.Sprintf("core: analysis slots %d must be a power of two", cfg.Slots))
	}
	a := &Analysis{
		scheme:        cfg.Scheme,
		slots:         cfg.Slots,
		n:             float64(2 * cfg.Slots),
		rnsPrimeBits:  40,
		magMarginBits: 12,
		rotKey:        cfg.RotKey,
		rotations:     map[int]int{},
	}
	if cfg.RNSPrimeBits > 0 {
		a.rnsPrimeBits = float64(cfg.RNSPrimeBits)
	}
	if cfg.MagMarginBits > 0 {
		a.magMarginBits = cfg.MagMarginBits
	}
	if cfg.CostLogQ > 0 || cfg.CostPrimes > 0 {
		a.totals = &costTotals{logQ: cfg.CostLogQ, primes: cfg.CostPrimes, alpha: float64(cfg.CostSpecial)}
		if cfg.Model != nil {
			a.model = *cfg.Model
		} else {
			a.model = DefaultCostModel(cfg.Scheme)
		}
		a.threads = cfg.CostThreads
	}
	a.batch = cfg.Batch
	if a.batch < 1 {
		a.batch = 1
	}
	if cfg.Bootstrap != nil {
		a.boot = &bootRun{cfg: *cfg.Bootstrap}
		if a.totals != nil {
			st := state{logQ: a.totals.logQ, r: a.totals.primes, alpha: a.totals.alpha}
			a.boot.cost = bootCost(a.boot.cfg.Spec, a.model, a.n, st)
		}
	}
	return a
}

// backend returns what the kernels execute against: the analysis itself or,
// with bootstrap accounting on, the analysis under the same hisa.Refresher
// the runtime uses — one trigger rule, so placements equal runtime refreshes.
func (a *Analysis) backend() hisa.Backend {
	if a.boot == nil {
		return a
	}
	rf, err := hisa.NewRefresher(a, a.boot.cfg.Floor)
	if err != nil {
		panic("core: " + err.Error()) // a is bootstrap-capable whenever boot is set
	}
	return rf
}

// --- hisa.BootstrapBackend ---

func (a *Analysis) BootstrapCapable() bool { return a.boot != nil }

// BudgetOf is the fact's remaining level: the window less the chain primes
// its lineage has consumed.
func (a *Analysis) BudgetOf(c hisa.Ciphertext) int {
	return a.boot.cfg.Window - int(math.Round(a.ct(c).consumed/a.rnsPrimeBits))
}

func (a *Analysis) FreshBudget() int { return a.boot.cfg.Window }

// DropToFresh is the identity: a fresh fact has consumed nothing.
func (a *Analysis) DropToFresh(c hisa.Ciphertext) hisa.Ciphertext { return c }

// Bootstrap places a bootstrap: record it, charge its instruction inventory,
// and return a fact reset to the fresh level (consumption zero, scale
// preserved, exactly what the runtime pipeline produces).
func (a *Analysis) Bootstrap(c hisa.Ciphertext) hisa.Ciphertext {
	a.boot.placements = append(a.boot.placements, BootPlacement{
		Index:       len(a.boot.placements),
		Node:        -1, // attributed, like Op, by the recording pass
		LevelBefore: a.BudgetOf(c),
		LevelAfter:  a.boot.cfg.Window,
		Cost:        a.boot.cost,
	})
	a.charge(a.boot.cost)
	return a.observe(&analysisCT{scale: a.ct(c).scale})
}

// Bootstraps returns the number of bootstraps this run placed.
func (a *Analysis) Bootstraps() int {
	if a.boot == nil {
		return 0
	}
	return len(a.boot.placements)
}

// BootPlacements returns the placements in execution order.
func (a *Analysis) BootPlacements() []BootPlacement {
	if a.boot == nil {
		return nil
	}
	return a.boot.placements
}

func (a *Analysis) Name() string { return "analysis-" + a.scheme.String() }
func (a *Analysis) Slots() int   { return a.slots }

func (a *Analysis) ct(c hisa.Ciphertext) *analysisCT {
	v, ok := c.(*analysisCT)
	if !ok {
		panic(fmt.Sprintf("core: foreign ciphertext %T in analysis", c))
	}
	return v
}

func (a *Analysis) pt(p hisa.Plaintext) *analysisPT {
	v, ok := p.(*analysisPT)
	if !ok {
		panic(fmt.Sprintf("core: foreign plaintext %T in analysis", p))
	}
	return v
}

// observe records a freshly produced ciphertext fact: the peak modulus
// requirement and the output-path consumption.
func (a *Analysis) observe(c *analysisCT) *analysisCT {
	need := c.consumed + math.Log2(c.scale) + a.magMarginBits
	if need > a.peakNeed {
		a.peakNeed = need
	}
	if c.consumed > a.consumedFinal {
		a.consumedFinal = c.consumed
	}
	return c
}

// state translates a fact into the modulus state a cost model consumes.
func (a *Analysis) state(c *analysisCT) state {
	if a.totals == nil {
		return state{}
	}
	if a.scheme == SchemeCKKS {
		return state{logQ: math.Max(1, a.totals.logQ-c.consumed)}
	}
	return rnsState(a.totals.primes, a.usedPrimes(c), a.totals.alpha)
}

// usedPrimes is the number of chain primes a fact's lineage has consumed.
func (a *Analysis) usedPrimes(c *analysisCT) float64 { return c.consumed / a.rnsPrimeBits }

// rnsState is the RNS modulus state of an operand that has consumed `used`
// of `primes` chain primes, under α special primes.
func rnsState(primes, used, alpha float64) state {
	return state{r: math.Max(1, primes-used), alpha: alpha}
}

// keySwitch records one key switch on operand c in the histogram.
func (a *Analysis) keySwitch(kind ksKind, c *analysisCT) {
	used := int(math.Round(a.usedPrimes(c)))
	h := a.keySwitches[kind]
	for len(h) <= used {
		h = append(h, 0)
	}
	h[used]++
	a.keySwitches[kind] = h
}

// KeySwitchCost reprices every key switch this run executed (and every
// bootstrap it placed) under the model for a chain of `primes` primes and
// α = alpha special primes. It reads only the histogram the run recorded,
// so candidates for α are compared without executing the circuit again.
func (a *Analysis) KeySwitchCost(m CostModel, primes float64, alpha int) float64 {
	price := [numKsKinds]func(float64, state) float64{
		ksRotate: m.Rotate, ksHoistSetup: m.RotateHoistedSetup, ksHoistStep: m.RotateHoistedStep, ksCtMul: m.CtMul,
	}
	total := 0.0
	for kind, h := range a.keySwitches {
		for used, count := range h {
			if count > 0 {
				total += float64(count) * price[kind](a.n, rnsState(primes, float64(used), float64(alpha)))
			}
		}
	}
	if a.boot != nil {
		st := rnsState(primes, 0, float64(alpha))
		total += float64(len(a.boot.placements)) * bootCost(a.boot.cfg.Spec, m, a.n, st)
	}
	return total
}

func (a *Analysis) charge(cost float64) {
	if a.totals == nil {
		return
	}
	a.totalCost += cost
	if a.threads > 1 {
		a.opCosts = append(a.opCosts, cost)
	}
}

// --- HISA implementation ---

func (a *Analysis) Encode(m []float64, f float64) hisa.Plaintext {
	if len(m) > a.slots {
		panic(fmt.Sprintf("core: %d values exceed %d slots", len(m), a.slots))
	}
	return &analysisPT{scale: f}
}

func (a *Analysis) Decode(hisa.Plaintext) []float64 { return make([]float64, a.slots) }

func (a *Analysis) Encrypt(p hisa.Plaintext) hisa.Ciphertext {
	return a.observe(&analysisCT{scale: a.pt(p).scale})
}

func (a *Analysis) Decrypt(c hisa.Ciphertext) hisa.Plaintext {
	return &analysisPT{scale: a.ct(c).scale}
}

func (a *Analysis) Copy(c hisa.Ciphertext) hisa.Ciphertext {
	cc := *a.ct(c)
	return &cc
}

func (a *Analysis) Free(any) {}

func (a *Analysis) join(x, y *analysisCT, scale float64) *analysisCT {
	return a.observe(&analysisCT{scale: scale, consumed: math.Max(x.consumed, y.consumed)})
}

// requireSameScale catches kernel scale-management bugs during analysis,
// mirroring the runtime backends' checks.
func requireSameScale(s1, s2 float64, op string) {
	if math.Abs(s1-s2) > 1e-6*math.Max(s1, s2) {
		panic(fmt.Sprintf("core: scale mismatch in %s during analysis: %g vs %g", op, s1, s2))
	}
}

func (a *Analysis) Add(c, c2 hisa.Ciphertext) hisa.Ciphertext {
	x, y := a.ct(c), a.ct(c2)
	requireSameScale(x.scale, y.scale, "add")
	a.charge(a.model.Add(a.n, a.state(x)))
	return a.join(x, y, x.scale)
}

func (a *Analysis) Sub(c, c2 hisa.Ciphertext) hisa.Ciphertext {
	x, y := a.ct(c), a.ct(c2)
	requireSameScale(x.scale, y.scale, "sub")
	a.charge(a.model.Add(a.n, a.state(x)))
	return a.join(x, y, x.scale)
}

func (a *Analysis) AddPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	x := a.ct(c)
	requireSameScale(x.scale, a.pt(p).scale, "addPlain")
	a.charge(a.model.Add(a.n, a.state(x)))
	return a.observe(&analysisCT{scale: x.scale, consumed: x.consumed})
}

func (a *Analysis) SubPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	return a.AddPlain(c, p)
}

func (a *Analysis) AddScalar(c hisa.Ciphertext, x float64) hisa.Ciphertext {
	cc := a.ct(c)
	a.charge(a.model.Add(a.n, a.state(cc)))
	return a.observe(&analysisCT{scale: cc.scale, consumed: cc.consumed})
}

func (a *Analysis) SubScalar(c hisa.Ciphertext, x float64) hisa.Ciphertext {
	return a.AddScalar(c, -x)
}

func (a *Analysis) Mul(c, c2 hisa.Ciphertext) hisa.Ciphertext {
	x, y := a.ct(c), a.ct(c2)
	a.keySwitch(ksCtMul, x)
	a.charge(a.model.CtMul(a.n, a.state(x)))
	return a.join(x, y, x.scale*y.scale)
}

// LazyRelinCapable marks the analysis interpretation as supporting deferred
// relinearization, so recording runs walk the same kernel branches as the
// real backend (hisa.LazyRelinBackend).
func (a *Analysis) LazyRelinCapable() bool { return true }

// MulNoRelin charges like Mul: the dataflow facts (scale, consumed modulus)
// are identical, and the relinearization cost estimate stays attached to the
// product for a conservative op model.
func (a *Analysis) MulNoRelin(c, c2 hisa.Ciphertext) hisa.Ciphertext { return a.Mul(c, c2) }

// Relinearize is a dataflow no-op: scale and modulus are untouched.
func (a *Analysis) Relinearize(c hisa.Ciphertext) hisa.Ciphertext { return c }

func (a *Analysis) MulPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	x, pp := a.ct(c), a.pt(p)
	a.charge(a.model.PlainMul(a.n, a.state(x)))
	return a.observe(&analysisCT{scale: x.scale * pp.scale, consumed: x.consumed})
}

func (a *Analysis) MulScalar(c hisa.Ciphertext, x float64, f float64) hisa.Ciphertext {
	cc := a.ct(c)
	a.charge(a.model.ScalarMul(a.n, a.state(cc)))
	return a.observe(&analysisCT{scale: cc.scale * f, consumed: cc.consumed})
}

func (a *Analysis) RotLeft(c hisa.Ciphertext, x int) hisa.Ciphertext {
	cc := a.ct(c)
	steps := hisa.RotationSteps(x, a.slots, a.rotKey)
	for _, s := range steps {
		a.rotations[s]++
		a.keySwitch(ksRotate, cc)
		a.charge(a.model.Rotate(a.n, a.state(cc)))
	}
	out := *cc
	return a.observe(&out)
}

func (a *Analysis) RotRight(c hisa.Ciphertext, x int) hisa.Ciphertext {
	return a.RotLeft(c, -x)
}

// RotLeftMany is the analysis transfer function for hoisted rotation
// batches (hisa.RotateManyBackend): with the RNS target, amounts served by
// an exact key share one digit decomposition — setup is charged once and
// each amount adds only the cheap inner-product step. Amounts that
// decompose into several primitive steps, and the CKKS target, fall back
// to per-step rotation charges. The recorded rotation steps are identical
// to the equivalent RotLeft sequence, so rotation-key selection and op
// counts are independent of whether a kernel batched its rotations.
func (a *Analysis) RotLeftMany(c hisa.Ciphertext, ks []int) []hisa.Ciphertext {
	cc := a.ct(c)
	outs := make([]hisa.Ciphertext, len(ks))
	setupCharged := false
	for i, x := range ks {
		steps := hisa.RotationSteps(x, a.slots, a.rotKey)
		if a.scheme == SchemeRNS && len(steps) == 1 {
			if !setupCharged {
				a.keySwitch(ksHoistSetup, cc)
				a.charge(a.model.RotateHoistedSetup(a.n, a.state(cc)))
				setupCharged = true
			}
			a.rotations[steps[0]]++
			a.keySwitch(ksHoistStep, cc)
			a.charge(a.model.RotateHoistedStep(a.n, a.state(cc)))
			out := *cc
			outs[i] = a.observe(&out)
			continue
		}
		outs[i] = a.RotLeft(c, x)
	}
	return outs
}

// MaxRescale implements each scheme's divisor rule on the dataflow fact.
func (a *Analysis) MaxRescale(c hisa.Ciphertext, ub *big.Int) *big.Int {
	if ub.Sign() <= 0 {
		return big.NewInt(1)
	}
	if a.scheme == SchemeCKKS {
		bits := ub.BitLen() - 1
		if bits < 1 {
			return big.NewInt(1)
		}
		return new(big.Int).Lsh(big.NewInt(1), uint(bits))
	}
	// RNS: the largest product of the next idealized chain primes <= ub.
	primeBits := int(a.rnsPrimeBits)
	k := (ub.BitLen() - 1) / primeBits
	if k < 1 {
		return big.NewInt(1)
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(k*primeBits))
}

func (a *Analysis) Rescale(c hisa.Ciphertext, x *big.Int) hisa.Ciphertext {
	cc := a.ct(c)
	if x.Cmp(big.NewInt(1)) == 0 {
		out := *cc
		return &out
	}
	bits := float64(x.BitLen() - 1)
	a.charge(a.model.Rescale(a.n, a.state(cc)))
	return a.observe(&analysisCT{scale: cc.scale / math.Exp2(bits), consumed: cc.consumed + bits})
}

func (a *Analysis) Scale(c hisa.Ciphertext) float64 { return a.ct(c).scale }

// --- hisa.ConjugateBackend ---
//
// The complex-packing operations have straightforward transfer functions:
// conjugation is a key switch (priced like a rotation) that leaves both
// scale and consumption unchanged, and the complex encode/plaintext variants
// mirror their real counterparts. Implementing the capability here lets the
// compiler analyze complex-packed circuits with the same unmodified kernels.

func (a *Analysis) Conjugate(c hisa.Ciphertext) hisa.Ciphertext {
	cc := a.ct(c)
	a.keySwitch(ksRotate, cc)
	a.charge(a.model.Rotate(a.n, a.state(cc)))
	out := *cc
	return a.observe(&out)
}

func (a *Analysis) EncryptC(m []complex128, f float64) hisa.Ciphertext {
	if len(m) > a.slots {
		panic(fmt.Sprintf("core: %d values exceed %d slots", len(m), a.slots))
	}
	return a.observe(&analysisCT{scale: f})
}

func (a *Analysis) DecryptC(c hisa.Ciphertext) []complex128 {
	a.ct(c)
	return make([]complex128, a.slots)
}

func (a *Analysis) AddPlainC(c hisa.Ciphertext, m []complex128) hisa.Ciphertext {
	x := a.ct(c)
	a.charge(a.model.Add(a.n, a.state(x)))
	return a.observe(&analysisCT{scale: x.scale, consumed: x.consumed})
}

func (a *Analysis) MulScalarC(c hisa.Ciphertext, z complex128, f float64) hisa.Ciphertext {
	cc := a.ct(c)
	a.charge(a.model.ScalarMul(a.n, a.state(cc)))
	return a.observe(&analysisCT{scale: cc.scale * f, consumed: cc.consumed})
}

// ConsumedOf exposes a ciphertext fact's consumed modulus bits; the scale-
// management pass uses it to bound deferrals against the modulus budget.
func (a *Analysis) ConsumedOf(c hisa.Ciphertext) float64 { return a.ct(c).consumed }

// --- Results ---

// PeakLogQ returns the modulus requirement discovered by the run: the
// maximum over all ciphertexts of consumed bits plus live scale plus the
// magnitude margin.
func (a *Analysis) PeakLogQ() float64 { return a.peakNeed }

// ConsumedLogQ returns the modulus consumed along the deepest path.
func (a *Analysis) ConsumedLogQ() float64 { return a.consumedFinal }

// ConsumedPrimes returns the RNS chain primes consumed by rescaling.
func (a *Analysis) ConsumedPrimes() int {
	return int(math.Round(a.consumedFinal / a.rnsPrimeBits))
}

// Rotations returns the distinct rotation steps executed, sorted
// ascending — the exact key set the encryptor must generate.
func (a *Analysis) Rotations() []int {
	out := make([]int, 0, len(a.rotations))
	for k := range a.rotations {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// RotationOps returns the total number of primitive rotations executed
// (used by the Figure 7 reproduction).
func (a *Analysis) RotationOps() int {
	total := 0
	for _, c := range a.rotations {
		total += c
	}
	return total
}

// Cost returns the cost estimate in microseconds (0 unless cost totals
// were supplied). With CostThreads T > 1 it is the T-thread makespan of
// the executed ops (see LPTMakespan); otherwise it is the exact serial
// running sum, unchanged from the single-threaded model.
func (a *Analysis) Cost() float64 {
	if a.threads > 1 {
		return LPTMakespan(a.opCosts, a.threads)
	}
	return a.totalCost
}

// CostPerImage amortizes Cost over the batch lanes: the op sequence of a
// batched evaluation is identical to the unbatched one (the batch axis
// rides along in the slot strides), so per-image cost is total/B.
func (a *Analysis) CostPerImage() float64 {
	return a.Cost() / float64(a.batch)
}
