package hisa

import (
	"fmt"
	"math/big"
	"sync"
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
	// Rotations is the set of provisioned single-step rotation keys (as
	// produced by CHET's rotation-keys selection pass). nil provisions the
	// power-of-two defaults the paper compares against.
	Rotations []int
	// IntraOpWorkers bounds how many goroutines a single operation may use
	// for its limb-parallel stages (hoisted decomposition digits, key-switch
	// inner-product rows). 0 or 1 selects the serial path.
	IntraOpWorkers int
	// Bootstrap, when set, provisions the bootstrap pipeline's rotation keys
	// alongside Rotations and attaches a bootstrapper (internal/boot), making
	// the backend hisa.BootstrapCapable. Params must have been laid out with
	// Bootstrap.ChainBits. Construction panics if the spec and parameters
	// disagree — a mis-provisioned bootstrap must not fail silently at
	// inference time.
	Bootstrap *boot.Spec
}

// rotationKeyAmounts resolves the configuration to the rotation keys a
// backend generates: the single-step slot rotations it can serve
// (normalized, deduplicated; nil Rotations selects the power-of-two defaults)
// and the amounts handed to key generation, which add the bootstrap
// pipeline's.
func (cfg RNSConfig) rotationKeyAmounts() (provisioned map[int]bool, keygenAmounts []int) {
	rotations := cfg.Rotations
	slots := cfg.Params.Slots()
	if rotations == nil {
		for p := 1; p < slots; p <<= 1 {
			rotations = append(rotations, p)
		}
	}
	provisioned = make(map[int]bool, len(rotations))
	for _, k := range rotations {
		k = ((k % slots) + slots) % slots
		if k == 0 || provisioned[k] {
			continue
		}
		provisioned[k] = true
		keygenAmounts = append(keygenAmounts, k)
	}
	if cfg.Bootstrap != nil {
		// Bootstrap rotations ride along AFTER slot normalization: the
		// pipeline's BSGS steps are ordinary slot rotations, but its sub-ring
		// trace amounts are multiples of the slot count — identities on the
		// packed slots, which the normalization above would silently drop —
		// and key generation maps them to distinct Galois automorphisms.
		for _, k := range cfg.Bootstrap.RotationAmounts() {
			if k < slots {
				if provisioned[k] {
					continue
				}
				provisioned[k] = true
			}
			keygenAmounts = append(keygenAmounts, k)
		}
	}
	return provisioned, keygenAmounts
}

// RotationKeyCount is an upper bound (exact unless two amounts share a
// Galois element) on the switching keys in the rotation key set a backend
// built from cfg generates and ships: one per key-generation amount plus
// the conjugation key.
func (cfg RNSConfig) RotationKeyCount() int {
	_, keygenAmounts := cfg.rotationKeyAmounts()
	return len(keygenAmounts) + 1
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

	// btMu guards bt and stageHook: EnableBootstrap and the telemetry
	// layer's SetBootstrapStageHook may arrive in either order.
	btMu      sync.Mutex
	bt        *boot.Bootstrapper // nil unless bootstrap-enabled
	stageHook boot.StageHook

	pk   *ckks.PublicKey
	rlk  *ckks.RelinearizationKey
	rtks *ckks.RotationKeySet
}

// NewRNSBackend generates all keys and returns a ready backend.
func NewRNSBackend(cfg RNSConfig) *RNSBackend {
	params := cfg.Params
	prng := cfg.PRNG
	if prng == nil {
		prng = ring.NewCryptoPRNG()
	}
	kgen := ckks.NewKeyGenerator(params, prng)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)

	provisioned, keygenAmounts := cfg.rotationKeyAmounts()
	rtks := kgen.GenRotationKeys(sk, keygenAmounts, true)

	b := &RNSBackend{
		params:      params,
		encoder:     ckks.NewEncoder(params),
		encryptor:   ckks.NewEncryptor(params, pk, prng),
		decryptor:   ckks.NewDecryptor(params, sk),
		evaluator:   ckks.NewEvaluator(params, rlk, rtks).SetIntraOpWorkers(cfg.IntraOpWorkers),
		provisioned: provisioned,
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
	rotations := make([]int, 0, len(b.provisioned))
	for k := range b.provisioned {
		rotations = append(rotations, k)
	}
	return RNSPublicKeys{PK: b.pk, RLK: b.rlk, RTKS: b.rtks, Rotations: rotations}
}

// NewRNSBackendFromKeys builds an evaluation-only backend from received
// public key material: it can encrypt and evaluate but holds no secret key,
// so Decrypt panics — exactly the capability set of the untrusted server.
func NewRNSBackendFromKeys(params *ckks.Parameters, keys RNSPublicKeys, prng ring.PRNG) *RNSBackend {
	if prng == nil {
		prng = ring.NewCryptoPRNG()
	}
	provisioned := make(map[int]bool, len(keys.Rotations))
	slots := params.Slots()
	for _, k := range keys.Rotations {
		k = ((k % slots) + slots) % slots
		if k != 0 {
			provisioned[k] = true
		}
	}
	return &RNSBackend{
		params:      params,
		encoder:     ckks.NewEncoder(params),
		encryptor:   ckks.NewEncryptor(params, keys.PK, prng),
		decryptor:   nil,
		evaluator:   ckks.NewEvaluator(params, keys.RLK, keys.RTKS),
		provisioned: provisioned,
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

func (b *RNSBackend) RotLeft(c Ciphertext, x int) Ciphertext {
	cc := b.ct(c)
	steps := RotationSteps(x, b.Slots(), func(k int) bool { return b.provisioned[k] })
	out := cc
	for _, s := range steps {
		out = b.evaluator.RotateLeft(out, s)
	}
	if out == cc {
		out = cc.CopyNew()
	}
	return out
}

func (b *RNSBackend) RotRight(c Ciphertext, x int) Ciphertext {
	return b.RotLeft(c, -x)
}

// RotLeftMany rotates c by every amount in ks with Halevi-Shoup hoisting:
// amounts whose provisioned-key decomposition is a single step share one
// digit decomposition of c, so the per-rotation cost drops to the key inner
// product. Amounts needing multiple steps (no exact key) fall back to the
// sequential path. Every output is bit-identical to RotLeft(c, ks[i]).
func (b *RNSBackend) RotLeftMany(c Ciphertext, ks []int) []Ciphertext {
	cc := b.ct(c)
	outs := make([]Ciphertext, len(ks))
	slots := b.Slots()
	var dec *ckks.HoistedDecomposition
	for i, x := range ks {
		steps := RotationSteps(x, slots, func(k int) bool { return b.provisioned[k] })
		switch len(steps) {
		case 0:
			outs[i] = cc.CopyNew()
		case 1:
			if dec == nil {
				dec = b.evaluator.HoistedDecompose(cc)
			}
			outs[i] = b.evaluator.RotateLeftHoisted(cc, dec, steps[0])
		default:
			outs[i] = b.RotLeft(c, x)
		}
	}
	if dec != nil {
		dec.Release()
	}
	return outs
}

func (b *RNSBackend) Add(c, c2 Ciphertext) Ciphertext { return b.evaluator.Add(b.ct(c), b.ct(c2)) }
func (b *RNSBackend) Sub(c, c2 Ciphertext) Ciphertext { return b.evaluator.Sub(b.ct(c), b.ct(c2)) }
func (b *RNSBackend) Mul(c, c2 Ciphertext) Ciphertext { return b.evaluator.Mul(b.ct(c), b.ct(c2)) }

// LazyRelinCapable marks the real lattice backend as supporting deferred
// relinearization (see hisa.LazyRelinBackend).
func (b *RNSBackend) LazyRelinCapable() bool { return true }

// MulNoRelin multiplies without the closing relinearization key-switch; the
// degree-2 result supports linear ops and a later Relinearize.
func (b *RNSBackend) MulNoRelin(c, c2 Ciphertext) Ciphertext {
	return b.evaluator.MulNoRelin(b.ct(c), b.ct(c2))
}

// Relinearize folds a lazy product back to degree 1.
func (b *RNSBackend) Relinearize(c Ciphertext) Ciphertext {
	return b.evaluator.Relinearize(b.ct(c))
}

// FusedRescaleCapable marks the real lattice backend as supporting the
// fused rescale-into-key-switch (see hisa.FusedRescaleBackend).
func (b *RNSBackend) FusedRescaleCapable() bool { return true }

// RelinearizeRescale relinearizes and rescales in one fused pass. The final
// prime drop rides inside the relinearization key switch (the decomposition
// runs at the post-rescale level and the rescale correction shares the
// mod-P correction's forward transforms); earlier drops of a multi-prime
// divisor run as plain rescales first, so the result is bit-identical to
// Relinearize(Rescale(c, x)) for every MaxRescale divisor.
func (b *RNSBackend) RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext {
	cc := b.ct(c)
	drops := b.dropsFor(cc, x)
	if drops == 0 {
		if cc.Degree() == 1 {
			return cc.CopyNew()
		}
		return b.evaluator.Relinearize(cc)
	}
	if drops == 1 {
		return b.evaluator.RelinearizeRescale(cc)
	}
	tmp := cc.CopyNew()
	b.evaluator.RescaleMany(tmp, drops-1)
	out := b.evaluator.RelinearizeRescale(tmp)
	b.evaluator.Recycle(tmp)
	return out
}

// dropsFor translates a MaxRescale divisor into a level-drop count,
// panicking on divisors that are not top-prime products (same contract as
// Rescale).
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
	if x.Cmp(big.NewInt(1)) == 0 {
		return cc.CopyNew()
	}
	prod := big.NewInt(1)
	drops := 0
	for lvl := cc.Level(); lvl >= 1; lvl-- {
		prod.Mul(prod, new(big.Int).SetUint64(b.params.Qi(lvl)))
		drops++
		if prod.Cmp(x) == 0 {
			out := cc.CopyNew()
			b.evaluator.RescaleMany(out, drops)
			return out
		}
		if prod.Cmp(x) > 0 {
			break
		}
	}
	panic(fmt.Sprintf("hisa: rescale divisor %v is not a top-prime product at level %d", x, cc.Level()))
}

func (b *RNSBackend) Scale(c Ciphertext) float64 { return b.ct(c).Scale }

// LevelOf exposes the ciphertext level (for tests and harnesses).
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
// The conjugation key is always part of the rotation key set this backend
// was built with, on both full and evaluation-only instances.
func (b *RNSBackend) Conjugate(c Ciphertext) Ciphertext {
	return b.evaluator.Conjugate(b.ct(c))
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
