// Package hisa defines the Homomorphic Instruction Set Architecture of the
// CHET compiler (Table 2 of the paper): a scheme-agnostic interface between
// the homomorphic tensor runtime and an underlying FHE scheme. Three
// executable backends are provided — Ref (a plaintext functional oracle),
// Sim (HEAAN-style CKKS with a power-of-two modulus, executed as a
// high-fidelity mock scheme), and RNS (the real RNS-CKKS lattice scheme of
// internal/ckks). The CHET compiler adds further backends that reinterpret
// ciphertexts as dataflow facts (modulus consumption, cost, rotation sets).
//
// Every backend implements the whole instruction set (Backend), so the
// kernels issue one instruction stream whatever interprets it. Exactly two
// capabilities stay optional, because backends genuinely differ in them:
// bootstrapping (BootstrapBackend) and encoding at a chosen modulus level
// (LeveledEncodeBackend).
package hisa

import "math/big"

// Ciphertext is an opaque handle to an encrypted vector. Its concrete type
// is owned by the backend: this is the paper's reinterpretable "ct"
// datatype.
type Ciphertext any

// Plaintext is an opaque handle to an encoded (unencrypted) vector.
type Plaintext any

// Backend implements the HISA instructions. All operations are functional
// (inputs are never mutated) so the same kernel source can be executed under
// value, cryptographic, and analysis interpretations. A backend without a
// separate relinearization or a fused sum of rotations implements those
// instructions by their definitions (MulNoRelin is Mul, Relinearize the
// identity, RelinearizeRescale a Rescale, RotSum is RotSumUnfused), so a
// kernel never branches on what the backend can do.
//
// Concurrency contract: the executable backends (Ref, Sim, RNS) and the
// observers over them (Meter, Refresher, telemetry.Tracer) are safe for
// concurrent op execution — any number of goroutines may issue
// Encode/arith/rotate/rescale calls on one backend, including on shared
// ciphertext handles, because ciphertexts are immutable once produced. Results are deterministic functions of their inputs, so a
// parallel schedule that preserves the per-output accumulation order is
// bit-identical to the serial one. Encrypt/Decrypt draw from a (possibly
// seeded) PRNG and are serialized internally; concurrent callers therefore
// race only on *which* random stream element they consume, not on memory.
// The compiler's analysis interpretations (core.Analysis) are exempt from
// this contract: they accumulate dataflow facts without locks and must be
// executed serially (Workers == 1), which the compiler guarantees.
type Backend interface {
	// Name identifies the backend ("ref", "ckks-sim", "rns-ckks", ...).
	Name() string

	// Slots returns the SIMD width s (N/2 for CKKS-family schemes).
	Slots() int

	// Encrypt encrypts plaintext p into a ciphertext.
	Encrypt(p Plaintext) Ciphertext
	// Decrypt decrypts ciphertext c into a plaintext.
	Decrypt(c Ciphertext) Plaintext
	// Copy makes an independent copy of ciphertext c.
	Copy(c Ciphertext) Ciphertext
	// Free releases any resources associated with the handle.
	Free(h any)

	// Encode encodes a vector of reals (len <= Slots, zero-padded) into a
	// plaintext with fixed-point scaling factor f.
	Encode(m []float64, f float64) Plaintext
	// Decode decodes a plaintext back into a vector of reals.
	Decode(p Plaintext) []float64

	// RotLeft rotates ciphertext c left by x slots; RotRight by x right.
	RotLeft(c Ciphertext, x int) Ciphertext
	RotRight(c Ciphertext, x int) Ciphertext

	// RotSum computes a linear combination of rotations as one instruction,
	// out[o] = Σ_t w_t · rot_{Rot_t}(srcs[Src_t]) over the terms of sums[o]:
	// the inner loop of the convolution, pooling and dense kernels. Its
	// semantics are RotSumUnfused — exactly on backends that compute
	// exactly, within the key switch's rounding on lattice backends, where
	// the RNS backend divides by the special modulus once per output instead
	// of once per rotation (internal/ckks rotsum.go). each spreads an
	// unfused sequence's rotations and sums across goroutines (nil: one
	// after another); a backend that computes the sums whole ignores it.
	// Outputs are fresh ciphertexts; the sources stay the caller's.
	RotSum(srcs []Ciphertext, sums [][]Term, each func(n int, fn func(i int))) []Ciphertext

	Add(c, c2 Ciphertext) Ciphertext
	AddPlain(c Ciphertext, p Plaintext) Ciphertext
	AddScalar(c Ciphertext, x float64) Ciphertext

	Sub(c, c2 Ciphertext) Ciphertext
	SubPlain(c Ciphertext, p Plaintext) Ciphertext
	SubScalar(c Ciphertext, x float64) Ciphertext

	Mul(c, c2 Ciphertext) Ciphertext
	MulPlain(c Ciphertext, p Plaintext) Ciphertext
	// MulScalar multiplies every slot by x, encoded at scale f.
	MulScalar(c Ciphertext, x float64, f float64) Ciphertext

	// MulNoRelin multiplies without the closing relinearization, so a kernel
	// can keep products at degree 2 through linear operations (Add, Sub,
	// MulScalar, MulScalarC) and fold several into one relinearization.
	// Relinearize(MulNoRelin(x, y)) is exactly Mul(x, y). Degree-2
	// ciphertexts must be relinearized before rotations, conjugation,
	// rescaling, or decryption.
	MulNoRelin(c, c2 Ciphertext) Ciphertext
	// Relinearize reduces a MulNoRelin product to a normal ciphertext; it
	// passes already-linear ciphertexts through unchanged.
	Relinearize(c Ciphertext) Ciphertext
	// RelinearizeRescale is exactly Rescale(Relinearize(c), x), with x
	// obtained from MaxRescale like any rescale divisor; the RNS backend
	// relinearizes at c's level and divides by the top prime inside the key
	// switch's output pass.
	RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext

	// Rescale rescales c by the divisor x, which must have been obtained
	// from MaxRescale. Undefined otherwise.
	Rescale(c Ciphertext, x *big.Int) Ciphertext
	// MaxRescale returns the largest divisor d <= ub that c can be rescaled
	// by (1 if none).
	MaxRescale(c Ciphertext, ub *big.Int) *big.Int

	// Scale returns the current fixed-point scale of c.
	Scale(c Ciphertext) float64

	// Slots are the complex coordinates of the CKKS canonical embedding; the
	// operations above act on them as the scheme does (Add, Sub and
	// rotations componentwise, Mul and MulPlain as complex slot products,
	// real plaintexts and scalars multiplying both components). The htc
	// complex packing mode — two batch lanes sharing one slot as real and
	// imaginary parts — is built on the five complex instructions below.
	// Complex vectors are slot-indexed like the real Encode/Decode vectors.

	// Conjugate conjugates every slot (a key-switching automorphism on
	// lattice backends, so it costs about as much as one rotation).
	Conjugate(c Ciphertext) Ciphertext
	// EncryptC encrypts a complex slot vector (len <= Slots, zero-padded)
	// at fixed-point scale f.
	EncryptC(m []complex128, f float64) Ciphertext
	// DecryptC decrypts both slot components. Panics on evaluation-only
	// instances, exactly like Decrypt.
	DecryptC(c Ciphertext) []complex128
	// AddPlainC adds a complex vector, encoded at the ciphertext's scale
	// (so the addition is scale-neutral, like AddScalar).
	AddPlainC(c Ciphertext, m []complex128) Ciphertext
	// MulScalarC multiplies every slot by the complex constant x encoded at
	// scale f; the result scale is Scale(c) * f.
	MulScalarC(c Ciphertext, x complex128, f float64) Ciphertext
}

// BootstrapBackend is an optional backend capability: backends that can
// refresh an exhausted ciphertext — one with no multiplicative budget left —
// into an equivalent ciphertext with a fresh budget implement it. On the RNS
// backend this is real CKKS bootstrapping (internal/boot); on the mock
// backends it is the corresponding bookkeeping (budget reset plus the
// bootstrap's approximation noise), so the compiler's bootstrap placement can
// be validated cheaply before a lattice run.
//
// Budgets are measured in levels: the number of ~PrimeBits rescales a
// ciphertext can still absorb. Bootstrap's output always has FreshBudget
// levels; semantically it is the identity on the message within the
// backend's documented precision (see internal/boot for the error budget of
// the real pipeline). It stays optional because an instance has it only
// when a bootstrapper is configured.
type BootstrapBackend interface {
	// BootstrapCapable reports whether the instance actually supports the
	// capability. The Interposer forwards these methods unconditionally, so
	// the interface assertion alone is not sufficient — AsBootstrap checks
	// this flag too.
	BootstrapCapable() bool
	// Bootstrap refreshes c to FreshBudget levels. The input is unchanged
	// and remains owned by the caller.
	Bootstrap(c Ciphertext) Ciphertext
	// BudgetOf reports the remaining multiplicative budget of c in levels.
	BudgetOf(c Ciphertext) int
	// FreshBudget is the budget of a just-bootstrapped ciphertext.
	FreshBudget() int
	// DropToFresh lowers a ciphertext to at most FreshBudget levels (the
	// identity when it is already at or below). Fresh encryptions enter at
	// the top of the bootstrap chain; dropping them to the fresh level makes
	// every ciphertext's budget match the compiler's placement model.
	DropToFresh(c Ciphertext) Ciphertext
}

// AsBootstrap returns b as a BootstrapBackend when b (including every layer
// of a wrapper chain) supports ciphertext refreshing.
func AsBootstrap(b Backend) (BootstrapBackend, bool) {
	bb, ok := FindCapability[BootstrapBackend](b)
	if !ok || !bb.BootstrapCapable() {
		return nil, false
	}
	return bb, true
}

// LeveledEncodeBackend is an optional backend capability: backends whose
// plaintexts carry a modulus level (RNS-CKKS, where a plaintext holds one
// row per chain prime) can encode at a chosen level instead of the top of
// the chain. A plaintext at level ℓ serves every ciphertext at level ≤ ℓ,
// and encoding is row-independent, so a product with a plaintext encoded at
// the ciphertext's own level is bit-identical to one with a top-level
// plaintext — at a fraction of the encoding work and memory. It stays
// optional because only RNS plaintexts carry a level: the kernels encode
// their constants through the session's store (htc.Constants) only on a
// backend that has it, and routing the mocks through that store would keep
// every mock plaintext alive for the session's lifetime to save no work.
type LeveledEncodeBackend interface {
	// LeveledEncodeCapable reports whether the instance actually supports
	// the capability; the Interposer forwards EncodeAt unconditionally, so
	// AsLeveledEncode checks this flag too.
	LeveledEncodeCapable() bool
	// EncodeAt is Encode at the given level.
	EncodeAt(m []float64, f float64, level int) Plaintext
	// LevelOf reports a ciphertext's level. It is metadata, like Scale.
	LevelOf(c Ciphertext) int
}

// AsLeveledEncode returns b as a LeveledEncodeBackend when b (including every
// layer of a wrapper chain) can encode at a chosen level.
func AsLeveledEncode(b Backend) (LeveledEncodeBackend, bool) {
	lb, ok := b.(LeveledEncodeBackend)
	if !ok || !lb.LeveledEncodeCapable() {
		return nil, false
	}
	return lb, true
}

// RotationSteps decomposes a left rotation by x (mod slots) into the
// primitive rotations a backend will actually execute given the provisioned
// rotation keys. With the exact key available the result is {x}; otherwise
// x is decomposed into the power-of-two rotations that FHE libraries
// provision by default (the behaviour CHET's rotation-keys selection pass
// improves on). Rotation by 0 yields no steps.
func RotationSteps(x, slots int, available func(int) bool) []int {
	x = ((x % slots) + slots) % slots
	if x == 0 {
		return nil
	}
	if available == nil || available(x) {
		return []int{x}
	}
	var steps []int
	for bit := 1; bit < slots; bit <<= 1 {
		if x&bit != 0 {
			steps = append(steps, bit)
		}
	}
	return steps
}

// Unwrapper is implemented by the Interposer (hence by Meter, Refresher and
// telemetry.Tracer), which delegates to an inner backend. FindCapability
// walks Unwrap chains so capabilities outside the HISA (level probes, scope
// hooks) survive any wrapping order.
type Unwrapper interface {
	Unwrap() Backend
}

// FindCapability reports the first backend in b's wrapper chain (b itself,
// then successive Unwrap results) that satisfies the capability type T.
// An observer that has the capability is found before its inner backend,
// preserving the observer's bookkeeping.
func FindCapability[T any](b Backend) (T, bool) {
	for b != nil {
		if t, ok := any(b).(T); ok {
			return t, true
		}
		u, ok := b.(Unwrapper)
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	var zero T
	return zero, false
}
