package hisa

import (
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chet/internal/boot"
	"chet/internal/ckks"
	"chet/internal/ring"
)

// RNSConfig configures the real RNS-CKKS backend.
type RNSConfig struct {
	Params *ckks.Parameters
	// PRNG supplies key-generation and encryption randomness; nil selects a
	// cryptographically secure source.
	PRNG ring.PRNG
	// Keys is the compiler's key plan: the switching keys the program uses
	// and the highest level each is applied at, which is where each key is
	// cut. nil provisions the library defaults the paper compares against:
	// power-of-two rotations, relinearization and conjugation, all over the
	// full chain.
	Keys *KeyPlan
	// Bootstrap, when set, provisions the bootstrap pipeline's rotation keys
	// alongside the plan's and attaches a bootstrapper (internal/boot), making
	// the backend hisa.BootstrapCapable. Params must have been laid out with
	// Bootstrap.ChainBits. Construction panics if the spec and parameters
	// disagree — a mis-provisioned bootstrap must not fail silently at
	// inference time.
	Bootstrap *boot.Spec
}

// KeyPlan states which switching keys a program uses and the highest
// ciphertext level each is applied at. A key generated for level ℓ serves
// every level up to ℓ and holds Digits(ℓ) digits over ℓ+1 chain rows plus
// the special rows — a fraction of the full-chain key.
type KeyPlan struct {
	// Rotations maps every single-step rotation amount the program applies
	// to the highest level it is applied at.
	Rotations map[int]int
	// Relin and Conjugate are the highest levels a relinearization and a
	// conjugation run at; -1 when the program performs none. Without
	// relinearizations the backend still generates the smallest, level-0
	// relinearization key, because the session-open frame carries one.
	Relin, Conjugate int
}

// FullChainKeys is the plan that provisions the given rotations,
// relinearization and conjugation over the whole chain of params — keys for
// code that is not a compiled program, such as hand-written kernels.
func FullChainKeys(params *ckks.Parameters, rotations ...int) *KeyPlan {
	top := params.MaxLevel()
	plan := &KeyPlan{Rotations: make(map[int]int, len(rotations)), Relin: top, Conjugate: top}
	for _, k := range rotations {
		plan.Rotations[k] = top
	}
	return plan
}

// KeyShape is exactly the key material a backend built from a configuration
// generates, uploads and admits.
type KeyShape struct {
	// Relin is the relinearization key's level.
	Relin int
	// Galois is the level of every Galois key, by Galois element.
	Galois map[uint64]int
	// Rotations are the single-step slot rotations the keys serve
	// (normalized to [1, slots), ascending).
	Rotations []int
}

// KeyShape resolves the configuration to the keys a backend generates. The
// bootstrap pipeline runs above every level the program reaches, so its
// rotations, its conjugation and the relinearization key span the full
// chain; its sub-ring trace amounts are multiples of the slot count —
// identities on the packed slots, which slot normalization would silently
// drop — and map to distinct Galois automorphisms of their own.
func (cfg RNSConfig) KeyShape() KeyShape {
	params := cfg.Params
	r := params.Ring()
	slots := params.Slots()
	top := params.MaxLevel()
	plan := cfg.Keys
	if plan == nil {
		plan = &KeyPlan{Rotations: map[int]int{}, Relin: top, Conjugate: top}
		for p := 1; p < slots; p <<= 1 {
			plan.Rotations[p] = top
		}
	}
	shape := KeyShape{Relin: max(plan.Relin, 0), Galois: make(map[uint64]int, len(plan.Rotations)+1)}
	use := func(g uint64, level int) {
		if l, ok := shape.Galois[g]; !ok || level > l {
			shape.Galois[g] = level
		}
	}
	provisioned := map[int]bool{}
	rotate := func(k, level int) {
		if k < slots {
			provisioned[k] = true
		}
		use(r.GaloisElementForRotation(k), level)
	}
	for k, level := range plan.Rotations {
		if k = ((k % slots) + slots) % slots; k != 0 {
			rotate(k, level)
		}
	}
	if plan.Conjugate >= 0 {
		use(r.GaloisElementConjugate(), plan.Conjugate)
	}
	if cfg.Bootstrap != nil {
		for _, k := range cfg.Bootstrap.RotationAmounts() {
			rotate(k, top)
		}
		use(r.GaloisElementConjugate(), top)
		shape.Relin = top
	}
	for k := range provisioned {
		shape.Rotations = append(shape.Rotations, k)
	}
	sort.Ints(shape.Rotations)
	return shape
}

// RotationKeyCount is the number of switching keys in the rotation key set
// a backend built from cfg generates and ships, the conjugation key
// included.
func (cfg RNSConfig) RotationKeyCount() int { return len(cfg.KeyShape().Galois) }

// EvaluationKeySizes returns the exact MarshalBinary sizes of the public
// key, the relinearization key and the rotation key set a backend built from
// cfg uploads.
func (cfg RNSConfig) EvaluationKeySizes() (pk, rlk, rtks int) {
	shape := cfg.KeyShape()
	return cfg.Params.EvaluationKeySizes(shape.Relin, shape.Galois)
}

// RNSBackend executes HISA instructions with real lattice cryptography: the
// RNS-CKKS scheme of internal/ckks (the scheme of SEAL v3.1). It is safe
// for concurrent op execution: the evaluator pools its scratch state, the
// encoder and decryptor are stateless, and the encryptor (whose PRNG is
// stateful) is serialized by encMu.
type RNSBackend struct {
	params      *ckks.Parameters
	encoder     *ckks.Encoder
	encMu       sync.Mutex
	encryptor   *ckks.Encryptor
	decryptor   *ckks.Decryptor // nil on evaluation-only (server) instances
	evaluator   *ckks.Evaluator
	provisioned map[int]bool
	rotations   []int // the provisioned amounts, as PublicKeys reports them

	keyLevelMisses atomic.Int64

	// btMu guards bt and stageHook: EnableBootstrap and the telemetry
	// layer's SetBootstrapStageHook may arrive in either order.
	btMu      sync.Mutex
	bt        *boot.Bootstrapper // nil unless bootstrap-enabled
	stageHook boot.StageHook

	pk   *ckks.PublicKey
	rlk  *ckks.RelinearizationKey
	rtks *ckks.RotationKeySet
}

// NewRNSBackend generates all keys, each cut at its planned level, and
// returns a ready backend.
func NewRNSBackend(cfg RNSConfig) *RNSBackend {
	params := cfg.Params
	prng := cfg.PRNG
	if prng == nil {
		prng = ring.NewCryptoPRNG()
	}
	shape := cfg.KeyShape()
	kgen := ckks.NewKeyGenerator(params, prng)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk, shape.Relin)
	rtks := kgen.GenGaloisKeys(sk, shape.Galois)

	b := &RNSBackend{
		params:      params,
		encoder:     ckks.NewEncoder(params),
		encryptor:   ckks.NewEncryptor(params, pk, prng),
		decryptor:   ckks.NewDecryptor(params, sk),
		evaluator:   ckks.NewEvaluator(params, rlk, rtks),
		provisioned: rotationSet(params, shape.Rotations),
		rotations:   shape.Rotations,
		pk:          pk,
		rlk:         rlk,
		rtks:        rtks,
	}
	if cfg.Bootstrap != nil {
		if err := b.EnableBootstrap(*cfg.Bootstrap); err != nil {
			panic("hisa: " + err.Error())
		}
	}
	return b
}

// rotationSet is the set of single-step slot rotations amounts realize.
func rotationSet(params *ckks.Parameters, amounts []int) map[int]bool {
	slots := params.Slots()
	set := make(map[int]bool, len(amounts))
	for _, k := range amounts {
		if k = ((k % slots) + slots) % slots; k != 0 {
			set[k] = true
		}
	}
	return set
}

// EnableBootstrap attaches a bootstrapper built over this backend's
// evaluator and encoder. The rotation key set must already hold keys for
// spec.RotationAmounts() plus conjugation (NewRNSBackend provisions them
// when RNSConfig.Bootstrap is set; evaluation-only instances receive them
// inside the shipped RNSPublicKeys).
func (b *RNSBackend) EnableBootstrap(spec boot.Spec) error {
	bt, err := boot.New(b.params, spec, b.evaluator, b.encoder)
	if err != nil {
		return err
	}
	b.btMu.Lock()
	b.bt = bt
	if b.stageHook != nil {
		bt.SetStageHook(b.stageHook)
	}
	b.btMu.Unlock()
	return nil
}

// SetBootstrapStageHook installs a per-stage observer on the attached
// bootstrapper (telemetry records refresh pipeline stages through it). The
// hook survives a later EnableBootstrap, so a tracer wrapped around an
// eval-only backend before the session's bootstrapper is attached still
// sees every stage.
func (b *RNSBackend) SetBootstrapStageHook(h func(stage string, start, end time.Time)) {
	b.btMu.Lock()
	b.stageHook = h
	if b.bt != nil {
		b.bt.SetStageHook(h)
	}
	b.btMu.Unlock()
}

// RNSPublicKeys is the public material a client ships to the evaluation
// server (Figure 3 of the paper): encryption key, relinearization key,
// rotation keys, and the rotation amounts they realize.
type RNSPublicKeys struct {
	PK        *ckks.PublicKey
	RLK       *ckks.RelinearizationKey
	RTKS      *ckks.RotationKeySet
	Rotations []int
}

// PublicKeys exports this backend's public key material for transfer to an
// evaluation-only server.
func (b *RNSBackend) PublicKeys() RNSPublicKeys {
	return RNSPublicKeys{PK: b.pk, RLK: b.rlk, RTKS: b.rtks, Rotations: b.rotations}
}

// NewRNSBackendFromKeys builds an evaluation-only backend from received
// public key material: it can encrypt and evaluate but holds no secret key,
// so Decrypt panics — exactly the capability set of the untrusted server.
func NewRNSBackendFromKeys(params *ckks.Parameters, keys RNSPublicKeys, prng ring.PRNG) *RNSBackend {
	if prng == nil {
		prng = ring.NewCryptoPRNG()
	}
	return &RNSBackend{
		params:      params,
		encoder:     ckks.NewEncoder(params),
		encryptor:   ckks.NewEncryptor(params, keys.PK, prng),
		decryptor:   nil,
		evaluator:   ckks.NewEvaluator(params, keys.RLK, keys.RTKS),
		provisioned: rotationSet(params, keys.Rotations),
		rotations:   keys.Rotations,
		pk:          keys.PK,
		rlk:         keys.RLK,
		rtks:        keys.RTKS,
	}
}

func (b *RNSBackend) Name() string { return "rns-ckks" }
func (b *RNSBackend) Slots() int   { return b.params.Slots() }

// Params exposes the parameter set (for harnesses and tests).
func (b *RNSBackend) Params() *ckks.Parameters { return b.params }

// ProvisionedRotations reports how many single-step rotation keys exist.
func (b *RNSBackend) ProvisionedRotations() int { return len(b.provisioned) }

func (b *RNSBackend) ct(c Ciphertext) *ckks.Ciphertext {
	v, ok := c.(*ckks.Ciphertext)
	if !ok {
		panic(fmt.Sprintf("hisa: foreign ciphertext %T passed to rns backend", c))
	}
	return v
}

func (b *RNSBackend) pt(p Plaintext) *ckks.Plaintext {
	v, ok := p.(*ckks.Plaintext)
	if !ok {
		panic(fmt.Sprintf("hisa: foreign plaintext %T passed to rns backend", p))
	}
	return v
}

func (b *RNSBackend) Encode(m []float64, f float64) Plaintext {
	return b.encoder.Encode(m, f, b.params.MaxLevel())
}

// LeveledEncodeCapable marks the real lattice backend as supporting
// encode-at-a-level (see hisa.LeveledEncodeBackend).
func (b *RNSBackend) LeveledEncodeCapable() bool { return true }

// EncodeAt encodes m at scale f over the chain primes 0..level only.
func (b *RNSBackend) EncodeAt(m []float64, f float64, level int) Plaintext {
	return b.encoder.Encode(m, f, level)
}

// SetLimbWorkers bounds the goroutines one instruction fans its per-limb
// stages across — decomposition digits, ModUp and ModDown rows, key-switch
// rows; 1 is serial and the partition is bit-identical to it. The
// bootstrapper shares the evaluator, so the bound covers refreshes too.
func (b *RNSBackend) SetLimbWorkers(n int) { b.evaluator.SetIntraOpWorkers(n) }

func (b *RNSBackend) Decode(p Plaintext) []float64 {
	return b.encoder.Decode(b.pt(p))
}

func (b *RNSBackend) Encrypt(p Plaintext) Ciphertext {
	b.encMu.Lock()
	defer b.encMu.Unlock()
	return b.encryptor.Encrypt(b.pt(p))
}

func (b *RNSBackend) Decrypt(c Ciphertext) Plaintext {
	if b.decryptor == nil {
		panic("hisa: this backend holds no secret key (evaluation-only server instance)")
	}
	return b.decryptor.Decrypt(b.ct(c))
}

func (b *RNSBackend) Copy(c Ciphertext) Ciphertext { return b.ct(c).CopyNew() }

// Free returns a dead ciphertext's limb buffers to the ring arena, closing
// the pooled-allocation loop for callers that drop handles at a known point
// (benchmark loops, the serving engine's per-request temporaries). The
// caller asserts nothing else references the handle's polynomials; foreign
// handles are ignored, and a second Free of the same handle is a no-op.
func (b *RNSBackend) Free(h any) {
	if cc, ok := h.(*ckks.Ciphertext); ok {
		b.evaluator.Recycle(cc)
	}
}

// keyed returns cc or, when cc sits above the levels swk serves, a copy
// dropped to the key's level. A compiled program never needs the drop — its
// key plan cuts every key at the highest level the program applies it at —
// but an instruction issued outside the program, such as a unit-cost probe
// on a fresh ciphertext, is served at the key's level instead of failing:
// dropping chain primes leaves the message and the scale unchanged. A missing
// key passes cc through for the evaluator to report.
func (b *RNSBackend) keyed(cc *ckks.Ciphertext, swk *ckks.SwitchingKey) *ckks.Ciphertext {
	if swk == nil || cc.Level() <= swk.Level {
		return cc
	}
	b.keyLevelMisses.Add(1)
	out := cc.CopyNew()
	b.evaluator.DropToLevel(out, swk.Level)
	return out
}

// ModDowns counts the key-switch accumulators this backend has divided by
// the special modulus (ckks.Evaluator.ModDowns), refreshes included.
func (b *RNSBackend) ModDowns() int64 { return b.evaluator.ModDowns() }

// NTTs counts the one-row forward and inverse transforms run on this
// backend's ring (ring.Ring.NTTs): the evaluator's, and the encryptor's
// and decryptor's on the same parameters.
func (b *RNSBackend) NTTs() (forward, inverse int64) { return b.params.Ring().NTTs() }

// KeyLevelMisses counts the key switches this backend served at a key's
// level below their operand's (see keyed). It stays 0 under a compiled
// program: the compiler plans every key for the highest level the program
// applies it at.
func (b *RNSBackend) KeyLevelMisses() int64 { return b.keyLevelMisses.Load() }

// galoisKey is the key of a Galois element, nil when there is none.
func (b *RNSBackend) galoisKey(g uint64) *ckks.SwitchingKey {
	if b.rtks == nil {
		return nil
	}
	return b.rtks.Keys[g]
}

func (b *RNSBackend) rotationKey(k int) *ckks.SwitchingKey {
	return b.galoisKey(b.params.Ring().GaloisElementForRotation(k))
}

func (b *RNSBackend) relinKey() *ckks.SwitchingKey {
	if b.rlk == nil {
		return nil
	}
	return b.rlk.Key
}

func (b *RNSBackend) RotLeft(c Ciphertext, x int) Ciphertext {
	cc := b.ct(c)
	steps := RotationSteps(x, b.Slots(), func(k int) bool { return b.provisioned[k] })
	out := cc
	for _, s := range steps {
		out = b.evaluator.RotateLeft(b.keyed(out, b.rotationKey(s)), s)
	}
	if out == cc {
		out = cc.CopyNew()
	}
	return out
}

func (b *RNSBackend) RotRight(c Ciphertext, x int) Ciphertext {
	return b.RotLeft(c, -x)
}

// RotSum computes the sums with one ModDown per output
// (ckks.Evaluator.RotSum). A rotation the keys serve in one step at its
// source's level is fused; an off-plan one — several steps, or a key below
// its source's level — is computed by RotLeft first and enters the sum as an
// unrotated term, which puts the call's outputs at its level. each is
// unused: the sums run whole, and the limb workers spread every one of them.
func (b *RNSBackend) RotSum(srcs []Ciphertext, sums [][]Term, _ func(n int, fn func(i int))) []Ciphertext {
	slots := b.Slots()
	cs := make([]*ckks.Ciphertext, len(srcs))
	for i, c := range srcs {
		cs[i] = b.ct(c)
	}
	var offPlan []*ckks.Ciphertext
	served := map[[2]int]int{} // off-plan (source, amount mod slots) → index in cs
	terms := make([][]ckks.SumTerm, len(sums))
	for o, ts := range sums {
		terms[o] = make([]ckks.SumTerm, len(ts))
		for i, t := range ts {
			st := ckks.SumTerm{Src: t.Src, Rot: t.Rot, X: t.X, F: t.F}
			if t.Plain != nil {
				st.Pt = b.pt(t.Plain)
			}
			steps := RotationSteps(t.Rot, slots, func(k int) bool { return b.provisioned[k] })
			off := len(steps) > 1
			if len(steps) == 1 {
				swk := b.rotationKey(steps[0])
				off = swk == nil || swk.Level < cs[t.Src].Level()
			}
			if off {
				key := [2]int{t.Src, ((t.Rot % slots) + slots) % slots}
				j, ok := served[key]
				if !ok {
					rot := b.ct(b.RotLeft(srcs[t.Src], t.Rot))
					j = len(cs)
					cs = append(cs, rot)
					offPlan = append(offPlan, rot)
					served[key] = j
				}
				st.Src, st.Rot = j, 0
			}
			terms[o][i] = st
		}
	}
	outs := b.evaluator.RotSum(cs, terms)
	for _, c := range offPlan {
		b.evaluator.Recycle(c)
	}
	res := make([]Ciphertext, len(outs))
	for i, c := range outs {
		res[i] = c
	}
	return res
}

func (b *RNSBackend) Add(c, c2 Ciphertext) Ciphertext { return b.evaluator.Add(b.ct(c), b.ct(c2)) }
func (b *RNSBackend) Sub(c, c2 Ciphertext) Ciphertext { return b.evaluator.Sub(b.ct(c), b.ct(c2)) }
func (b *RNSBackend) Mul(c, c2 Ciphertext) Ciphertext {
	return b.evaluator.Mul(b.keyed(b.ct(c), b.relinKey()), b.keyed(b.ct(c2), b.relinKey()))
}

// MulNoRelin multiplies without the closing relinearization key-switch; the
// degree-2 result supports linear ops and a later Relinearize.
func (b *RNSBackend) MulNoRelin(c, c2 Ciphertext) Ciphertext {
	return b.evaluator.MulNoRelin(b.ct(c), b.ct(c2))
}

// Relinearize folds a lazy product back to degree 1.
func (b *RNSBackend) Relinearize(c Ciphertext) Ciphertext {
	cc := b.ct(c)
	if cc.Degree() == 1 {
		return b.evaluator.Relinearize(cc)
	}
	return b.evaluator.Relinearize(b.keyed(cc, b.relinKey()))
}

// RelinearizeRescale is Rescale(Relinearize(c), x). The relinearization
// key switch runs at c's level and the division by its top prime rides in
// the switch's output pass (ckks.Evaluator.RelinearizeRescale); further
// primes of a multi-prime divisor are rescaled plainly.
func (b *RNSBackend) RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext {
	cc := b.ct(c)
	drops := b.dropsFor(cc, x)
	switch {
	case cc.Degree() == 1:
		return b.Rescale(cc, x)
	case drops == 0:
		return b.Relinearize(cc)
	}
	if swk := b.relinKey(); swk != nil && cc.Level() > swk.Level {
		// Off-plan, counted once (see keyed): dropping to the key's level
		// first would change which primes divide, so this one path rescales
		// a degree-2 ciphertext, then relinearizes at the key's level.
		b.keyLevelMisses.Add(1)
		tmp := cc.CopyNew()
		b.evaluator.RescaleMany(tmp, drops)
		if tmp.Level() > swk.Level {
			b.evaluator.DropToLevel(tmp, swk.Level)
		}
		out := b.evaluator.Relinearize(tmp)
		b.evaluator.Recycle(tmp)
		return out
	}
	out := b.evaluator.RelinearizeRescale(cc)
	b.evaluator.RescaleMany(out, drops-1)
	return out
}

// dropsFor translates a MaxRescale divisor into a level-drop count,
// panicking on divisors that are not top-prime products (the contract of
// Rescale and RelinearizeRescale).
func (b *RNSBackend) dropsFor(cc *ckks.Ciphertext, x *big.Int) int {
	if x.Cmp(big.NewInt(1)) == 0 {
		return 0
	}
	prod := big.NewInt(1)
	drops := 0
	for lvl := cc.Level(); lvl >= 1; lvl-- {
		prod.Mul(prod, new(big.Int).SetUint64(b.params.Qi(lvl)))
		drops++
		if prod.Cmp(x) == 0 {
			return drops
		}
		if prod.Cmp(x) > 0 {
			break
		}
	}
	panic(fmt.Sprintf("hisa: rescale divisor %v is not a top-prime product at level %d", x, cc.Level()))
}

func (b *RNSBackend) AddPlain(c Ciphertext, p Plaintext) Ciphertext {
	return b.evaluator.AddPlain(b.ct(c), b.pt(p))
}

func (b *RNSBackend) SubPlain(c Ciphertext, p Plaintext) Ciphertext {
	return b.evaluator.SubPlain(b.ct(c), b.pt(p))
}

func (b *RNSBackend) MulPlain(c Ciphertext, p Plaintext) Ciphertext {
	return b.evaluator.MulPlain(b.ct(c), b.pt(p))
}

func (b *RNSBackend) AddScalar(c Ciphertext, x float64) Ciphertext {
	return b.evaluator.AddScalar(b.ct(c), x)
}

func (b *RNSBackend) SubScalar(c Ciphertext, x float64) Ciphertext {
	return b.evaluator.AddScalar(b.ct(c), -x)
}

func (b *RNSBackend) MulScalar(c Ciphertext, x float64, f float64) Ciphertext {
	return b.evaluator.MulScalar(b.ct(c), x, f)
}

// MaxRescale returns the product of the next chain primes (top down) that
// fits under ub — the RNS-CKKS divisor rule.
func (b *RNSBackend) MaxRescale(c Ciphertext, ub *big.Int) *big.Int {
	cc := b.ct(c)
	prod := big.NewInt(1)
	next := new(big.Int)
	for lvl := cc.Level(); lvl >= 1; lvl-- {
		next.Mul(prod, new(big.Int).SetUint64(b.params.Qi(lvl)))
		if next.Cmp(ub) > 0 {
			break
		}
		prod.Set(next)
	}
	return prod
}

// Rescale drops as many levels as the divisor covers. The divisor must be a
// product of the ciphertext's top chain primes, i.e. a value previously
// returned by MaxRescale.
func (b *RNSBackend) Rescale(c Ciphertext, x *big.Int) Ciphertext {
	cc := b.ct(c)
	drops := b.dropsFor(cc, x)
	out := cc.CopyNew()
	if drops > 0 {
		b.evaluator.RescaleMany(out, drops)
	}
	return out
}

func (b *RNSBackend) Scale(c Ciphertext) float64 { return b.ct(c).Scale }

// LevelOf reports the ciphertext's RNS level.
func (b *RNSBackend) LevelOf(c Ciphertext) int { return b.ct(c).Level() }

// BootstrapCapable reports whether a bootstrapper is attached (RNSConfig.
// Bootstrap at construction, or EnableBootstrap afterwards).
func (b *RNSBackend) BootstrapCapable() bool { return b.bt != nil }

func (b *RNSBackend) boot() *boot.Bootstrapper {
	if b.bt == nil {
		panic("hisa: rns backend built without RNSConfig.Bootstrap")
	}
	return b.bt
}

// BootSpec exposes the attached bootstrap arithmetic (for harnesses).
func (b *RNSBackend) BootSpec() boot.Spec { return b.boot().Spec() }

// Bootstrap runs the real CKKS bootstrap pipeline on c. Degree-2 inputs are
// relinearized first (the pipeline's mod-raise requires degree 1). Pipeline
// errors are parameterization bugs, not data-dependent conditions, so they
// panic like every other misuse of the backend.
func (b *RNSBackend) Bootstrap(c Ciphertext) Ciphertext {
	bt := b.boot()
	cc := b.ct(c)
	var tmp *ckks.Ciphertext
	if cc.Degree() > 1 {
		tmp = b.evaluator.Relinearize(cc)
		cc = tmp
	}
	out, err := bt.Bootstrap(cc)
	if tmp != nil {
		b.evaluator.Recycle(tmp)
	}
	if err != nil {
		panic("hisa: " + err.Error())
	}
	// Snap the output scale to the parameter default Δ — the scale the
	// compiler's analysis tracks at every refresh point (bootstrap
	// compilations require prime-aligned scales, so analysis scales are
	// exactly Δ at op boundaries). The pipeline re-anchors the scale inside
	// EvalMod, so out.Scale sits within ~1e-6 of Δ regardless of how much
	// upward drift the input accumulated: chain primes sit a hair below
	// their power-of-two targets, and every ciphertext squaring doubles a
	// lineage's relative drift, so deep networks arrive well off Δ.
	// Redeclaring absorbs the remaining ~1e-6 gap as a multiplicative
	// message error far inside the bootstrap epsilon and resets the
	// lineage's drift at each refresh, keeping it bounded at any depth. A
	// large deviation means the chain and spec disagree, which is a bug,
	// not data.
	delta := b.evaluator.Params().DefaultScale()
	if ratio := out.Scale / delta; ratio < 0.999 || ratio > 1.001 {
		panic(fmt.Sprintf("hisa: bootstrap scale drifted off the default scale %g -> %g (chain/spec mismatch)", delta, out.Scale))
	}
	out.Scale = delta
	return out
}

// BudgetOf reports the ciphertext's RNS level — exactly its remaining
// rescale count.
func (b *RNSBackend) BudgetOf(c Ciphertext) int { return b.ct(c).Level() }

// FreshBudget is the level a bootstrapped ciphertext lands at.
func (b *RNSBackend) FreshBudget() int { return b.boot().FreshLevel() }

// DropToFresh lowers a ciphertext (typically a fresh encryption at the top
// of the bootstrap chain) to the fresh level, so runtime budgets track the
// compiler's placement model from the first op.
func (b *RNSBackend) DropToFresh(c Ciphertext) Ciphertext {
	cc := b.ct(c)
	out := cc.CopyNew()
	if fresh := b.boot().FreshLevel(); out.Level() > fresh {
		b.evaluator.DropToLevel(out, fresh)
	}
	return out
}

// Conjugate conjugates every slot via the Galois conjugation automorphism.
// The conjugation key exists when the key plan says the program conjugates
// (complex packing, bootstrapping) or no plan was given.
func (b *RNSBackend) Conjugate(c Ciphertext) Ciphertext {
	swk := b.galoisKey(b.params.Ring().GaloisElementConjugate())
	return b.evaluator.Conjugate(b.keyed(b.ct(c), swk))
}

// EncryptC encrypts a complex slot vector at scale f.
func (b *RNSBackend) EncryptC(m []complex128, f float64) Ciphertext {
	pt := b.encoder.EncodeComplex(m, f, b.params.MaxLevel())
	b.encMu.Lock()
	defer b.encMu.Unlock()
	return b.encryptor.Encrypt(pt)
}

// DecryptC decrypts both slot components.
func (b *RNSBackend) DecryptC(c Ciphertext) []complex128 {
	if b.decryptor == nil {
		panic("hisa: this backend holds no secret key (evaluation-only server instance)")
	}
	return b.encoder.DecodeComplex(b.decryptor.Decrypt(b.ct(c)))
}

// AddPlainC adds a complex vector, encoding it at the ciphertext's scale and
// level so the addition is scale-neutral. Slot-constant vectors — the shape
// every bias and polynomial constant takes under complex packing — skip the
// FFT+NTT encode entirely: a constant is the two-term polynomial
// a + b·X^(N/2), added pointwise (see Evaluator.AddScalarC).
func (b *RNSBackend) AddPlainC(c Ciphertext, m []complex128) Ciphertext {
	cc := b.ct(c)
	if len(m) > 0 {
		constant := true
		for _, v := range m[1:] {
			if v != m[0] {
				constant = false
				break
			}
		}
		if constant {
			return b.evaluator.AddScalarC(cc, m[0])
		}
	}
	pt := b.encoder.EncodeComplex(m, cc.Scale, cc.Level())
	return b.evaluator.AddPlain(cc, pt)
}

// MulScalarC multiplies every slot by the complex constant x at scale f,
// decomposed as re(x)·c + i·(im(x)·c): two constant-polynomial scalar
// multiplications plus an exact monomial multiply-by-i — no plaintext
// encoding and no key switch.
func (b *RNSBackend) MulScalarC(c Ciphertext, x complex128, f float64) Ciphertext {
	cc := b.ct(c)
	re, im := real(x), imag(x)
	switch {
	case im == 0:
		return b.evaluator.MulScalar(cc, re, f)
	case re == 0:
		return b.evaluator.MulByI(b.evaluator.MulScalar(cc, im, f))
	default:
		rp := b.evaluator.MulScalar(cc, re, f)
		ip := b.evaluator.MulByI(b.evaluator.MulScalar(cc, im, f))
		return b.evaluator.Add(rp, ip)
	}
}
