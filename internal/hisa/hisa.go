// Package hisa defines the Homomorphic Instruction Set Architecture of the
// CHET compiler (Table 2 of the paper): a scheme-agnostic interface between
// the homomorphic tensor runtime and an underlying FHE scheme. Three
// executable backends are provided — Ref (a plaintext functional oracle),
// Sim (HEAAN-style CKKS with a power-of-two modulus, executed as a
// high-fidelity mock scheme), and RNS (the real RNS-CKKS lattice scheme of
// internal/ckks). The CHET compiler adds further backends that reinterpret
// ciphertexts as dataflow facts (modulus consumption, cost, rotation sets).
//
// Every backend implements the whole instruction set (Backend), bootstrapping
// included, so a program issues one instruction stream whatever interprets
// it. Exactly one capability stays optional, because backends genuinely
// differ in it: encoding at a chosen modulus level (LeveledEncodeBackend).
// The kernels, which run only in the compiler, take their constants as runs
// (RunsBackend).
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
// separate relinearization implements those instructions by their
// definitions (MulNoRelin is Mul, Relinearize the identity,
// RelinearizeRescale a Rescale), and RotSum is defined as RotSumUnfused
// then a Rescale per divided output, which Ref runs as written and Sim
// computes bit for bit in one accumulator per output, so a kernel never
// branches on what the backend can do.
//
// Concurrency contract: the executable backends (Ref, Sim, RNS) and the
// observers over them (Meter, telemetry.Tracer) are safe for
// concurrent op execution — any number of goroutines may issue
// Encode/arith/rotate/rescale calls on one backend, including on shared
// ciphertext handles, because ciphertexts are immutable once produced. Results are deterministic functions of their inputs, so a
// parallel schedule that preserves the per-output accumulation order is
// bit-identical to the serial one. Encrypt/Decrypt draw from a (possibly
// seeded) PRNG and are serialized internally; concurrent callers therefore
// race only on *which* random stream element they consume, not on memory.
// The compiler's analysis interpretations (core.Analysis) and its
// Refresher are exempt from this contract: they accumulate dataflow facts
// and record the program without locks and run serially.
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
	// plaintext with fixed-point scaling factor f. The plaintext does not
	// hold m: the caller may reuse it.
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
	// of once per rotation (internal/ckks rotsum.go). With a divide
	// function, each output is then rescaled by the divisor divide returns
	// for it (1: none), exactly Rescale(out[o], d): divide is called once
	// per output, in output order, with a ciphertext that has the output's
	// metadata but maybe not its data, so it may only read its Scale and ask
	// MaxRescale about it. The RNS backend divides inside each output's
	// ModDown, bit-identical to the pair; Sim divides each output in place,
	// Ref runs the pair. Outputs are fresh ciphertexts; the sources stay
	// the caller's.
	RotSum(srcs []Ciphertext, sums [][]Term, divide func(Ciphertext) *big.Int) []Ciphertext

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

	// Bootstrapping refreshes an exhausted ciphertext — one with no
	// multiplicative budget left — into an equivalent ciphertext with a fresh
	// budget. On the RNS backend this is real CKKS bootstrapping
	// (internal/boot); on the mock backends it is the corresponding
	// bookkeeping (budget reset plus the bootstrap's approximation noise), so
	// the compiler's bootstrap placement can be validated cheaply before a
	// lattice run; on Ref it is the identity.
	//
	// Budgets are measured in levels: the number of ~PrimeBits rescales a
	// ciphertext can still absorb. Bootstrap's output always has FreshBudget
	// levels; semantically it is the identity on the message within the
	// backend's documented precision (see internal/boot for the error budget
	// of the real pipeline). An instance has a bootstrapper only when one is
	// configured, which BootstrapCapable reports; the four methods below are
	// for capable instances (Sim and RNS panic descriptively without one).
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

// LeveledEncodeBackend is an optional backend capability: backends whose
// plaintexts carry a modulus level (RNS-CKKS, where a plaintext holds one
// row per chain prime) can encode at a chosen level instead of the top of
// the chain. A plaintext at level ℓ serves every ciphertext at level ≤ ℓ,
// and encoding is row-independent, so a product with a plaintext encoded at
// the ciphertext's own level is bit-identical to one with a top-level
// plaintext — at a fraction of the encoding work and memory. It stays
// optional because only RNS plaintexts carry a level: a program
// (htc.Program) keeps its constants encoded only on a backend that has it,
// and keeping the mocks' would hold every mock plaintext for the program's
// lifetime to save no work.
type LeveledEncodeBackend interface {
	// LeveledEncodeCapable reports whether the instance actually supports
	// the capability; the Interposer forwards EncodeAt unconditionally, so
	// AsLeveledEncode checks this flag too.
	LeveledEncodeCapable() bool
	// EncodeAt is Encode at the given level.
	EncodeAt(m []float64, f float64, level int) Plaintext
	// EncodeCAt encodes a complex slot vector at scale f and the given
	// level: what AddPlainC adds, encoded once for every ciphertext at or
	// below that level.
	EncodeCAt(m []complex128, f float64, level int) Plaintext
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

// Run is a stretch of Len equal slot values from slot Start: the form the
// kernels build their constants in and a compiled program stores them in.
type Run struct {
	Start, Len int32
	Value      float64
}

// RunsBackend is what the kernels execute against: a backend that takes
// their constants as runs, built on demand. A runs function returns a
// constant's nonzero runs in slot order, no two neighbours of one value (nil:
// no constant); a backend that needs no values never calls it. The kernels
// run only in the compiler, whose analysis (core.Analysis) keeps the values
// in its recording run and only their scale in every other; every execution
// replays the program they recorded (htc.Program), which stores the runs.
// Ref and Sim take runs too, so a replay on them, which encodes a constant
// per use, fills one slot vector straight from its runs (AsRuns).
type RunsBackend interface {
	Backend
	// EncodeRuns is Encode of the constant runs builds.
	EncodeRuns(runs func() []Run, f float64) Plaintext
	// AddPlainCRuns is AddPlainC of the complex constant re + i·im.
	AddPlainCRuns(c Ciphertext, re, im func() []Run) Ciphertext
}

// AsRuns returns b as a RunsBackend when every backend in b's wrapper chain
// (FindCapability's walk) takes constants as runs. The Interposer forwards
// EncodeRuns whatever it wraps, so b answering the assertion is not enough.
func AsRuns(b Backend) (RunsBackend, bool) {
	rb, ok := b.(RunsBackend)
	for inner := b; ok; {
		u, wrapped := inner.(Unwrapper)
		if !wrapped {
			return rb, true
		}
		inner = u.Unwrap()
		_, ok = inner.(RunsBackend)
	}
	return nil, false
}

// Expand writes rs into a fresh vector of n slots.
func Expand(rs []Run, n int) []float64 {
	v := make([]float64, n)
	for _, r := range rs {
		for i := r.Start; i < r.Start+r.Len; i++ {
			v[i] = r.Value
		}
	}
	return v
}

// ExpandC expands the complex constant re + i·im into its n slot values.
func ExpandC(re, im []Run, n int) []complex128 {
	vr, vi := Expand(re, n), Expand(im, n)
	m := make([]complex128, n)
	for s := range m {
		m[s] = complex(vr[s], vi[s])
	}
	return m
}

// built is the runs a runs function builds; nil builds none.
func built(runs func() []Run) []Run {
	if runs == nil {
		return nil
	}
	return runs()
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
