package core

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"chet/internal/hisa"
	"chet/internal/htc"
)

// Analysis is the compiler's reinterpretation of the HISA (Section 5.1): it
// implements hisa.Backend, but its ciphertexts carry dataflow facts instead
// of encrypted data. Executing the unmodified tensor kernels against it
// unrolls the circuit's dataflow graph on the fly and composes the per-
// instruction transfer functions, yielding:
//
//   - the modulus consumed by rescaling and the peak modulus requirement
//     (encryption parameter selection, Section 5.2),
//   - a tally of the priced instructions by cost kind and consumed modulus,
//     which price turns into the cost estimate at any chain and α once the
//     parameters are known (layout selection, 5.3),
//   - the set of rotation steps performed (rotation keys selection, 5.4).
//
// One run per layout and ring degree answers all three; the recording run
// (record) is the only other.
type Analysis struct {
	scheme Scheme
	slots  int
	n      float64
	model  CostModel

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
	// ops tallies every priced instruction (price).
	ops tally
	// keyUse is, per switching key (a rotation amount, keyRelin or keyConj),
	// the fewest chain primes an operand it was applied to had consumed:
	// the key's highest level once the chain is known (KeyPlan).
	keyUse map[int]int

	// masks counts the mask products the kernels announced (TallyMask).
	masks int

	// boot, when non-nil, makes the analysis bootstrap-capable: run under a
	// hisa.Refresher (see backend), every refresh it triggers is recorded as
	// a placement.
	boot *bootRun

	// rec, when non-nil, records the program the run issues (record); top is
	// the level its inputs start at, -1 for a target without levels.
	rec *htc.Recording
	top int
}

// bootRun is the bootstrap-placement state of one analysis run.
type bootRun struct {
	cfg        BootConfig
	placements []BootPlacement
}

// costKind is the CostModel method that prices an instruction.
type costKind int

const (
	costAdd        costKind = iota // Add: additions and subtractions, of plaintexts and scalars too
	costScalarMul                  // ScalarMul
	costPlainMul                   // PlainMul
	costRescale                    // Rescale
	costRotate                     // Rotate: a rotation step or a conjugation on its own
	costHoistSetup                 // RotateHoistedSetup: a hoisted batch's decomposition
	costHoistStep                  // RotateHoistedStep: one amount of a hoisted batch
	costCtMul                      // CtMul: a product and its relinearization
	costBootstrap                  // bootCost: one bootstrap, priced at the top of the chain
	numCostKinds
)

// tally counts priced instructions by cost kind and by the modulus their
// operand had consumed (the slice index: chain primes for RNS, bits for
// CKKS). It depends on the circuit, the layout and the ring degree only, so
// one tally prices every chain and α (price).
type tally [numCostKinds][]int

// add counts one instruction of kind on an operand that consumed used.
func (t *tally) add(kind costKind, used int) {
	h := t[kind]
	for len(h) <= used {
		h = append(h, 0)
	}
	h[used]++
	t[kind] = h
}

// The keyUse names of the relinearization and conjugation keys; rotation
// keys are named by their amount, which is positive.
const (
	keyRelin = -1
	keyConj  = -2
)

// analysisCT is the dataflow fact attached to each ciphertext.
type analysisCT struct {
	scale    float64
	consumed float64 // log2 of modulus consumed so far (CKKS bits; RNS primes*bits)
	reg      int32
}

// analysisCT and analysisPT name, in a recording run, their register and
// constant (-1: none).
type analysisPT struct {
	scale float64
	k     int32
}

// newAnalysis is the analysis of a compile under the filled options opts at
// ring degree 2^logN. With boot non-nil it is bootstrap-capable: it reports
// each ciphertext's remaining level (Window less the chain primes consumed)
// as its budget and runs under a hisa.Refresher with boot.Floor, so its
// placements are the refreshes the runtime performs. Every run of one
// compile is built here, so they agree on everything the options say.
func newAnalysis(opts *Options, logN int, boot *BootConfig) *Analysis {
	slots := 1 << (logN - 1)
	a := &Analysis{
		scheme:        opts.Scheme,
		slots:         slots,
		n:             float64(2 * slots),
		model:         DefaultCostModel(opts.Scheme),
		rnsPrimeBits:  float64(opts.RNSPrimeBits),
		magMarginBits: opts.MagMarginBits,
		rotations:     map[int]int{},
		keyUse:        map[int]int{},
	}
	if opts.CostModel != nil {
		a.model = *opts.CostModel
	}
	if opts.PowerOfTwoRotationsOnly {
		a.rotKey = func(int) bool { return false }
	}
	if boot != nil {
		a.boot = &bootRun{cfg: *boot}
	}
	return a
}

// backend returns what the kernels execute against: the analysis itself or,
// with bootstrap accounting on, the analysis under a hisa.Refresher, whose
// refreshes a recording run records as bootstrap instructions.
func (a *Analysis) backend() hisa.RunsBackend {
	if a.boot == nil {
		return a
	}
	rf, err := hisa.NewRefresher(a, a.boot.cfg.Floor)
	if err != nil {
		panic("core: " + err.Error()) // a is bootstrap-capable whenever boot is set
	}
	return rf
}

// TallyMask counts one mask product: the kernels announce each one to a
// backend that has this method, so the recording run can attribute masks to
// circuit nodes.
func (a *Analysis) TallyMask() { a.masks++ }

// --- Bootstrapping ---

func (a *Analysis) BootstrapCapable() bool { return a.boot != nil }

func (a *Analysis) bootRun() *bootRun {
	if a.boot == nil {
		panic("core: analysis built without a BootConfig")
	}
	return a.boot
}

// BudgetOf is the fact's remaining level: the window less the chain primes
// its lineage has consumed.
func (a *Analysis) BudgetOf(c hisa.Ciphertext) int {
	return a.bootRun().cfg.Window - int(math.Round(a.ct(c).consumed/a.rnsPrimeBits))
}

func (a *Analysis) FreshBudget() int { return a.bootRun().cfg.Window }

// DropToFresh changes no fact: a fresh fact has consumed nothing.
func (a *Analysis) DropToFresh(c hisa.Ciphertext) hisa.Ciphertext {
	out := *a.ct(c)
	return a.emit(htc.Instr{Op: htc.OpDropToFresh}, &out, a.ct(c))
}

// Bootstrap places a bootstrap: record it, tally it, and return a fact reset
// to the fresh level (consumption zero, scale preserved, exactly what the
// runtime pipeline produces).
func (a *Analysis) Bootstrap(c hisa.Ciphertext) hisa.Ciphertext {
	boot := a.bootRun()
	boot.placements = append(boot.placements, BootPlacement{
		Index:       len(boot.placements),
		Node:        -1, // attributed, like Op and Cost, by the recording pass
		LevelBefore: a.BudgetOf(c),
		LevelAfter:  boot.cfg.Window,
	})
	a.ops.add(costBootstrap, 0)
	return a.emit(htc.Instr{Op: htc.OpBootstrap}, a.observe(&analysisCT{scale: a.ct(c).scale}), a.ct(c))
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

// usedPrimes is the number of chain primes a fact's lineage has consumed.
func (a *Analysis) usedPrimes(c *analysisCT) float64 { return c.consumed / a.rnsPrimeBits }

// level is the level a fact sits at in a recording run (-1 without levels).
func (a *Analysis) level(c *analysisCT) int {
	if a.top < 0 {
		return -1
	}
	return a.top - int(math.Round(a.usedPrimes(c)))
}

// Recording is the program a recording run records into (nil: none).
func (a *Analysis) Recording() *htc.Recording { return a.rec }

// emit records instruction in, with operands args and result out, a fresh
// fact, when the run records; the result is out.
func (a *Analysis) emit(in htc.Instr, out *analysisCT, args ...*analysisCT) *analysisCT {
	if a.rec == nil {
		return out
	}
	return a.emitMany(in, []hisa.Ciphertext{out}, args...)[0].(*analysisCT)
}

// emitMany records an instruction with results outs, as emit does, and
// returns them in its registers. A rotsum's operands are its Sums entry.
func (a *Analysis) emitMany(in htc.Instr, outs []hisa.Ciphertext, args ...*analysisCT) []hisa.Ciphertext {
	if a.rec == nil {
		return outs
	}
	regs := make([]int32, len(args))
	for i, x := range args {
		regs[i] = x.reg
	}
	first := a.ct(outs[0])
	in.Level, in.Scale = int32(a.level(first)), first.scale
	r := a.rec.Emit(in, len(outs), regs...)
	named := make([]hisa.Ciphertext, len(outs))
	for i, c := range outs {
		f := *a.ct(c)
		if f.reg = -1; r >= 0 {
			f.reg = r + int32(i)
		}
		named[i] = &f
	}
	return named
}

// Decided records a scale decision as one instruction (htc's decide).
func (a *Analysis) Decided(in htc.Instr, runs func() []hisa.Run, args, outs []hisa.Ciphertext) []hisa.Ciphertext {
	if in.K = -1; runs != nil {
		in.K = a.constant(runs, nil, 0)
		a.rec.Use(in.K, a.level(a.ct(args[0])))
	}
	facts := make([]*analysisCT, len(args))
	for i, c := range args {
		facts[i] = a.ct(c)
	}
	return a.emitMany(in, outs, facts...)
}

// constant adds a constant to a recording run's table (-1: none); no other
// run builds its runs.
func (a *Analysis) constant(re, im func() []hisa.Run, scale float64) int32 {
	if a.rec == nil {
		return -1
	}
	return a.rec.Constant(re, im, scale)
}

// plain is instruction op with the plaintext operand p, which meets x.
func (a *Analysis) plain(op htc.Op, x *analysisCT, p hisa.Plaintext) htc.Instr {
	k := a.pt(p).k
	if a.rec != nil && !a.rec.Quiet() {
		if k < 0 {
			panic("core: a plaintext encoded from a slot vector cannot be recorded; kernels hand constants over as runs")
		}
		a.rec.Use(k, a.level(x))
	}
	return htc.Instr{Op: op, K: k}
}

// count tallies one instruction of kind on operand c.
func (a *Analysis) count(kind costKind, c *analysisCT) {
	used := c.consumed
	if a.scheme == SchemeRNS {
		used = a.usedPrimes(c)
	}
	a.ops.add(kind, int(math.Round(used)))
}

// useKey records that the named key was applied to operand c.
func (a *Analysis) useKey(key int, c *analysisCT) {
	used := int(math.Round(a.usedPrimes(c)))
	if u, ok := a.keyUse[key]; !ok || used < u {
		a.keyUse[key] = used
	}
}

// KeyPlan is the run's key plan for a chain whose fresh ciphertexts sit at
// level top: every key the run applied, at the highest level it was applied
// at.
func (a *Analysis) KeyPlan(top int) *hisa.KeyPlan {
	plan := &hisa.KeyPlan{Rotations: map[int]int{}, Relin: -1, Conjugate: -1}
	for key, used := range a.keyUse {
		switch level := top - used; key {
		case keyRelin:
			plan.Relin = level
		case keyConj:
			plan.Conjugate = level
		default:
			plan.Rotations[key] = level
		}
	}
	return plan
}

// price is the cost model's estimate of tally t, in microseconds, on a
// chain whose fresh ciphertexts are in modulus state fresh: each instruction
// is priced at the state its operand reached on the way down, and each
// bootstrap at fresh.
func (a *Analysis) price(t *tally, fresh state) float64 {
	m := a.model
	each := [numCostKinds]func(float64, state) float64{
		costAdd: m.Add, costScalarMul: m.ScalarMul, costPlainMul: m.PlainMul, costRescale: m.Rescale,
		costRotate: m.Rotate, costHoistSetup: m.RotateHoistedSetup, costHoistStep: m.RotateHoistedStep,
		costCtMul:     m.CtMul,
		costBootstrap: func(n float64, st state) float64 { return bootCost(a.boot.cfg.Spec, m, n, st) },
	}
	total := 0.0
	for kind, h := range t {
		for used, count := range h {
			if count > 0 {
				total += float64(count) * each[kind](a.n, fresh.after(a.scheme, used))
			}
		}
	}
	return total
}

// --- HISA implementation ---

// Encode keeps only the scale: the kernels hand their constants over as runs
// (EncodeRuns), and what remains is the input the run encrypts.
func (a *Analysis) Encode(m []float64, f float64) hisa.Plaintext {
	if len(m) > a.slots {
		panic(fmt.Sprintf("core: %d values exceed %d slots", len(m), a.slots))
	}
	return &analysisPT{scale: f, k: -1}
}

// EncodeRuns keeps the scale and, in a recording run, the constant.
func (a *Analysis) EncodeRuns(runs func() []hisa.Run, f float64) hisa.Plaintext {
	return &analysisPT{scale: f, k: a.constant(runs, nil, f)}
}

func (a *Analysis) Decode(hisa.Plaintext) []float64 { return make([]float64, a.slots) }

// Encrypt makes an input: in a recording run, the program's next input
// register.
func (a *Analysis) Encrypt(p hisa.Plaintext) hisa.Ciphertext { return a.input(a.pt(p).scale) }

func (a *Analysis) input(scale float64) *analysisCT {
	c := a.observe(&analysisCT{scale: scale, reg: -1})
	if a.rec != nil {
		c.reg = a.rec.Input()
	}
	return c
}

func (a *Analysis) Decrypt(c hisa.Ciphertext) hisa.Plaintext {
	return &analysisPT{scale: a.ct(c).scale, k: -1}
}

func (a *Analysis) Copy(c hisa.Ciphertext) hisa.Ciphertext {
	cc := *a.ct(c)
	return a.emit(htc.Instr{Op: htc.OpCopy}, &cc, a.ct(c))
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

func (a *Analysis) Add(c, c2 hisa.Ciphertext) hisa.Ciphertext { return a.add(htc.OpAdd, c, c2) }
func (a *Analysis) Sub(c, c2 hisa.Ciphertext) hisa.Ciphertext { return a.add(htc.OpSub, c, c2) }

func (a *Analysis) add(op htc.Op, c, c2 hisa.Ciphertext) hisa.Ciphertext {
	x, y := a.ct(c), a.ct(c2)
	requireSameScale(x.scale, y.scale, op.String())
	a.count(costAdd, x)
	return a.emit(htc.Instr{Op: op}, a.join(x, y, x.scale), x, y)
}

func (a *Analysis) AddPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	return a.addPlain(htc.OpAddPlain, c, p)
}

func (a *Analysis) SubPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	return a.addPlain(htc.OpSubPlain, c, p)
}

func (a *Analysis) addPlain(op htc.Op, c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	x := a.ct(c)
	requireSameScale(x.scale, a.pt(p).scale, op.String())
	a.count(costAdd, x)
	return a.emit(a.plain(op, x, p), a.observe(&analysisCT{scale: x.scale, consumed: x.consumed}), x)
}

func (a *Analysis) AddScalar(c hisa.Ciphertext, x float64) hisa.Ciphertext {
	return a.addScalar(htc.Instr{Op: htc.OpAddScalar, X: x}, c)
}

func (a *Analysis) SubScalar(c hisa.Ciphertext, x float64) hisa.Ciphertext {
	return a.addScalar(htc.Instr{Op: htc.OpSubScalar, X: x}, c)
}

func (a *Analysis) addScalar(in htc.Instr, c hisa.Ciphertext) hisa.Ciphertext {
	cc := a.ct(c)
	a.count(costAdd, cc)
	return a.emit(in, a.observe(&analysisCT{scale: cc.scale, consumed: cc.consumed}), cc)
}

func (a *Analysis) Mul(c, c2 hisa.Ciphertext) hisa.Ciphertext { return a.mul(htc.OpMul, c, c2) }

// MulNoRelin is tallied like Mul: the dataflow facts (scale, consumed
// modulus) are identical, and the relinearization's price stays attached to
// the product for a conservative op model.
func (a *Analysis) MulNoRelin(c, c2 hisa.Ciphertext) hisa.Ciphertext {
	return a.mul(htc.OpMulNoRelin, c, c2)
}

func (a *Analysis) mul(op htc.Op, c, c2 hisa.Ciphertext) hisa.Ciphertext {
	x, y := a.ct(c), a.ct(c2)
	// The product sits at the lower operand's level (ckks aligns them
	// first): it is what is multiplied and relinearized.
	out := a.join(x, y, x.scale*y.scale)
	a.useKey(keyRelin, out)
	a.count(costCtMul, out)
	return a.emit(htc.Instr{Op: op}, out, x, y)
}

// Relinearize is a dataflow no-op: scale and modulus are untouched.
func (a *Analysis) Relinearize(c hisa.Ciphertext) hisa.Ciphertext {
	out := *a.ct(c)
	return a.emit(htc.Instr{Op: htc.OpRelin}, &out, a.ct(c))
}

// RelinearizeRescale is Rescale, tallied identically: the relinearization
// is priced with the product (MulNoRelin).
func (a *Analysis) RelinearizeRescale(c hisa.Ciphertext, x *big.Int) hisa.Ciphertext {
	return a.Rescale(c, x)
}

func (a *Analysis) MulPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	x, pp := a.ct(c), a.pt(p)
	a.count(costPlainMul, x)
	return a.emit(a.plain(htc.OpMulPlain, x, p), a.observe(&analysisCT{scale: x.scale * pp.scale, consumed: x.consumed}), x)
}

func (a *Analysis) MulScalar(c hisa.Ciphertext, x float64, f float64) hisa.Ciphertext {
	cc := a.ct(c)
	a.count(costScalarMul, cc)
	return a.emit(htc.Instr{Op: htc.OpMulScalar, X: x, F: f}, a.observe(&analysisCT{scale: cc.scale * f, consumed: cc.consumed}), cc)
}

func (a *Analysis) RotLeft(c hisa.Ciphertext, x int) hisa.Ciphertext {
	return a.emit(htc.Instr{Op: htc.OpRotLeft, Rot: int32(x)}, a.rotate(a.ct(c), x), a.ct(c))
}

func (a *Analysis) RotRight(c hisa.Ciphertext, x int) hisa.Ciphertext {
	return a.emit(htc.Instr{Op: htc.OpRotRight, Rot: int32(x)}, a.rotate(a.ct(c), -x), a.ct(c))
}

// rotate is the fact of cc rotated left by x, in primitive steps.
func (a *Analysis) rotate(cc *analysisCT, x int) *analysisCT {
	a.rotateSteps(cc, x)
	out := *cc
	return a.observe(&out)
}

// rotateSteps tallies a rotation of cc left by x, step by step.
func (a *Analysis) rotateSteps(cc *analysisCT, x int) {
	for _, s := range hisa.RotationSteps(x, a.slots, a.rotKey) {
		a.rotations[s]++
		a.useKey(s, cc)
		a.count(costRotate, cc)
	}
}

// RotSum is the analysis transfer function for sums of rotations. It tallies
// the unfused sequence (hisa.RotSumUnfused) without executing it: the same
// instructions at the same levels — every distinct rotation, then per sum
// each term's product and its addition to the running sum — and the same
// rotation and key-use bookkeeping, with one fact per output and none per
// term. The rotations of a source drawn at two or more amounts are tallied
// as one hoisted batch: with the RNS target, amounts served by an exact key
// share one digit decomposition, so setup is counted once and each amount
// adds only the inner-product step. Amounts that decompose into several
// primitive steps, a source rotated by a single amount, and the CKKS target
// are counted per step. The recorded rotation steps are
// identical to the equivalent RotLeft sequence, so rotation-key selection
// and op counts do not depend on the pricing. A recording run records the
// sums as one instruction; a divide runs the pair.
func (a *Analysis) RotSum(srcs []hisa.Ciphertext, sums [][]hisa.Term, divide func(hisa.Ciphertext) *big.Int) []hisa.Ciphertext {
	for s, ks := range hisa.SumRotations(a.slots, len(srcs), sums) {
		if len(ks) > 0 {
			a.rotateBatch(a.ct(srcs[s]), ks)
		}
	}
	outs := make([]hisa.Ciphertext, len(sums))
	for o, terms := range sums {
		var acc analysisCT
		for i, t := range terms {
			src := a.ct(srcs[t.Src])
			x := analysisCT{scale: src.scale, consumed: src.consumed}
			switch {
			case t.Plain != nil:
				a.count(costPlainMul, &x)
				x.scale *= a.pt(t.Plain).scale
				a.observe(&x)
			case t.F != 0:
				a.count(costScalarMul, &x)
				x.scale *= t.F
				a.observe(&x)
			}
			if i == 0 {
				acc = x
				continue
			}
			requireSameScale(acc.scale, x.scale, htc.OpAdd.String())
			a.count(costAdd, &acc)
			acc.consumed = math.Max(acc.consumed, x.consumed)
		}
		if len(terms) > 1 {
			// Every partial sum's need is at most the whole sum's.
			a.observe(&acc)
		}
		outs[o] = &acc
	}
	if divide != nil {
		// The kernels issue a sum and then their rescale decisions, which
		// the recorded program fuses (htc.Recording.Program): a recording
		// run records no divide, and Rescale refuses one.
		for o, c := range outs {
			if d := divide(c); d.Cmp(big.NewInt(1)) != 0 {
				outs[o] = a.Rescale(c, d)
			}
		}
		return outs
	}
	if a.rec == nil || a.rec.Quiet() {
		return outs
	}
	rs := htc.RotSum{Srcs: make([]int32, 0, len(srcs)), Sums: make([][]htc.Term, len(sums))}
	for _, c := range srcs {
		rs.Srcs = append(rs.Srcs, a.ct(c).reg)
	}
	for o, terms := range sums {
		rs.Sums[o] = make([]htc.Term, 0, len(terms))
		for _, t := range terms {
			k := int32(-1)
			if t.Plain != nil {
				k = a.plain(htc.OpRotSum, a.ct(srcs[t.Src]), t.Plain).K
			}
			rs.Sums[o] = append(rs.Sums[o], htc.Term{Src: int32(t.Src), Rot: int32(t.Rot), K: k, X: t.X, F: t.F})
		}
	}
	return a.emitMany(htc.Instr{Op: htc.OpRotSum, K: a.rec.Sum(rs)}, outs)
}

// rotateBatch tallies the rotations of cc by every amount in ks, hoisting
// them as RotSum describes.
func (a *Analysis) rotateBatch(cc *analysisCT, ks []int) {
	setup := false
	for _, x := range ks {
		steps := hisa.RotationSteps(x, a.slots, a.rotKey)
		if a.scheme == SchemeRNS && len(steps) == 1 && len(ks) > 1 {
			if !setup {
				a.count(costHoistSetup, cc)
				setup = true
			}
			a.rotations[steps[0]]++
			a.useKey(steps[0], cc)
			a.count(costHoistStep, cc)
			continue
		}
		a.rotateSteps(cc, x)
	}
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

// Rescale runs only inside the scale decisions, which a recording run
// records whole.
func (a *Analysis) Rescale(c hisa.Ciphertext, x *big.Int) hisa.Ciphertext {
	if a.rec != nil && !a.rec.Quiet() {
		panic("core: a rescale outside a scale decision cannot be recorded")
	}
	cc := a.ct(c)
	if x.Cmp(big.NewInt(1)) == 0 {
		out := *cc
		return &out
	}
	bits := float64(x.BitLen() - 1)
	a.count(costRescale, cc)
	return a.observe(&analysisCT{scale: cc.scale / math.Exp2(bits), consumed: cc.consumed + bits})
}

func (a *Analysis) Scale(c hisa.Ciphertext) float64 { return a.ct(c).scale }

// --- Complex slot instructions ---
//
// The complex-packing operations have straightforward transfer functions:
// conjugation is a key switch (priced like a rotation) that leaves both
// scale and consumption unchanged, and the complex encode/plaintext variants
// mirror their real counterparts.

func (a *Analysis) Conjugate(c hisa.Ciphertext) hisa.Ciphertext {
	cc := a.ct(c)
	a.useKey(keyConj, cc)
	a.count(costRotate, cc)
	out := *cc
	return a.emit(htc.Instr{Op: htc.OpConj}, a.observe(&out), cc)
}

func (a *Analysis) EncryptC(m []complex128, f float64) hisa.Ciphertext {
	if len(m) > a.slots {
		panic(fmt.Sprintf("core: %d values exceed %d slots", len(m), a.slots))
	}
	return a.input(f)
}

func (a *Analysis) DecryptC(c hisa.Ciphertext) []complex128 {
	a.ct(c)
	return make([]complex128, a.slots)
}

// AddPlainC is never called: the kernels hand complex constants over as
// runs (AddPlainCRuns).
func (a *Analysis) AddPlainC(hisa.Ciphertext, []complex128) hisa.Ciphertext {
	panic("core: the analysis takes complex constants as runs")
}

func (a *Analysis) AddPlainCRuns(c hisa.Ciphertext, re, im func() []hisa.Run) hisa.Ciphertext {
	x := a.ct(c)
	a.count(costAdd, x)
	k := a.constant(re, im, 0)
	return a.emit(htc.Instr{Op: htc.OpAddPlainC, K: k}, a.observe(&analysisCT{scale: x.scale, consumed: x.consumed}), x)
}

func (a *Analysis) MulScalarC(c hisa.Ciphertext, z complex128, f float64) hisa.Ciphertext {
	cc := a.ct(c)
	a.count(costScalarMul, cc)
	in := htc.Instr{Op: htc.OpMulScalarC, X: real(z), Y: imag(z), F: f}
	return a.emit(in, a.observe(&analysisCT{scale: cc.scale * f, consumed: cc.consumed}), cc)
}

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
