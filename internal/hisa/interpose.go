package hisa

import (
	"math/big"
	"time"
)

// OpKind names one HISA instruction as the Interposer reports it. The complex
// variants report under their real counterparts' kinds (EncryptC is an
// encrypt, AddPlainC an addplain, MulScalarC a mulscalar).
type OpKind uint8

// The reported instructions, in the order /metrics lists them. Copy, Free,
// Scale and the budget queries are metadata and are never reported.
const (
	OpEncrypt OpKind = iota
	OpDecrypt
	OpEncode
	OpDecode
	OpRotLeft
	OpRotRight
	OpAdd
	OpAddPlain
	OpAddScalar
	OpSub
	OpSubPlain
	OpSubScalar
	OpMul
	OpMulPlain
	OpMulScalar
	OpRelin
	OpConj
	OpRescale
	OpMaxRescale
	OpBootstrap
	NumOps
)

var opNames = [NumOps]string{
	"encrypt", "decrypt", "encode", "decode", "rotl", "rotr",
	"add", "addplain", "addscalar", "sub", "subplain", "subscalar",
	"mul", "mulplain", "mulscalar", "relin", "conj", "rescale", "maxrescale", "bootstrap",
}

// String is the instruction's mnemonic — the one table span names, /metrics
// labels and placement reports all draw from.
func (k OpKind) String() string { return opNames[k] }

// Op describes one executed instruction to an Interposer's hooks.
type Op struct {
	Kind OpKind
	// In and In2 are the ciphertext operands, nil where the instruction has
	// none. A before-hook may replace them; the Interposer frees a
	// replacement once the instruction and its after-hook have run.
	In, In2 Ciphertext
	// Out is the ciphertext result, nil where the instruction has none. An
	// after-hook may replace it; the Interposer then frees the original.
	Out Ciphertext
	// Rot is the rotation amount of a rotl or rotr.
	Rot int
	// Start and Dur time the wrapped backend's call. Markers (see Mul and
	// RelinearizeRescale) carry a zero Dur.
	Start time.Time
	Dur   time.Duration
}

// Interposer is the single forwarding implementation of Backend and the five
// capability interfaces: it turns every call into an Op and hands it to a
// before-hook (ahead of the wrapped call, single-result instructions only)
// and an after-hook. Meter, Refresher and telemetry.Tracer are observers
// that embed one. The accounting rules live here and nowhere else:
//
//   - a rotation by a multiple of Slots and a rescale by 1 are non-ops:
//     forwarded, reported to no hook;
//   - Mul is a mul followed by a zero-duration relin marker (every backend
//     relinearizes inside Mul); MulNoRelin is the mul alone and the deferred
//     Relinearize the relin, with its real duration;
//   - RelinearizeRescale is a full-duration rescale followed by a relin
//     marker, or, with divisor 1, just the relin;
//   - RotLeftMany is one rotl per non-trivial amount, the batch's duration
//     split evenly between them;
//   - Bootstrap is one instruction: its interior runs below the HISA.
//
// The capability methods exist whatever the wrapped backend supports, so
// callers gate on AsLazyRelin, AsFusedRescale and AsBootstrap (which consult
// the Capable flags forwarded here); calling one the backend lacks panics.
// An Interposer is as safe for concurrent use as its hooks are.
type Interposer struct {
	inner  Backend
	tag    string
	before func(*Op)
	after  func(*Op)

	conj  ConjugateBackend
	lazy  LazyRelinBackend
	fused FusedRescaleBackend
	boot  BootstrapBackend
}

var (
	_ Backend             = (*Interposer)(nil)
	_ ConjugateBackend    = (*Interposer)(nil)
	_ LazyRelinBackend    = (*Interposer)(nil)
	_ FusedRescaleBackend = (*Interposer)(nil)
	_ BootstrapBackend    = (*Interposer)(nil)
	_ RotateManyBackend   = (*Interposer)(nil)
	_ Unwrapper           = (*Interposer)(nil)
)

// NewInterposer wraps inner; tag is appended to its name. Either hook may be
// nil.
func NewInterposer(inner Backend, tag string, before, after func(*Op)) Interposer {
	ip := Interposer{inner: inner, tag: tag, before: before, after: after}
	ip.conj, _ = inner.(ConjugateBackend)
	ip.lazy, _ = inner.(LazyRelinBackend)
	ip.fused, _ = inner.(FusedRescaleBackend)
	ip.boot, _ = inner.(BootstrapBackend)
	return ip
}

// Unwrap exposes the wrapped backend for capability discovery
// (FindCapability).
func (ip *Interposer) Unwrap() Backend { return ip.inner }

func (ip *Interposer) Name() string { return ip.inner.Name() + "+" + ip.tag }
func (ip *Interposer) Slots() int   { return ip.inner.Slots() }

func (ip *Interposer) Copy(c Ciphertext) Ciphertext { return ip.inner.Copy(c) }
func (ip *Interposer) Free(h any)                   { ip.inner.Free(h) }
func (ip *Interposer) Scale(c Ciphertext) float64   { return ip.inner.Scale(c) }

// run executes one instruction between the hooks. call receives the operands
// as the before-hook left them.
func (ip *Interposer) run(op *Op, call func(c, c2 Ciphertext) Ciphertext) Ciphertext {
	in, in2 := op.In, op.In2
	if ip.before != nil {
		ip.before(op)
	}
	op.Start = time.Now()
	out := call(op.In, op.In2)
	op.Dur = time.Since(op.Start)
	op.Out = out
	if ip.after != nil {
		ip.after(op)
	}
	if op.In != in {
		ip.inner.Free(op.In)
	}
	if op.In2 != in2 && op.In2 != op.In {
		ip.inner.Free(op.In2)
	}
	if op.Out != out {
		ip.inner.Free(out)
	}
	return op.Out
}

// mark reports a zero-duration instruction that ran inside prev.
func (ip *Interposer) mark(kind OpKind, prev *Op) {
	if ip.after != nil {
		ip.after(&Op{Kind: kind, Out: prev.Out, Start: prev.Start.Add(prev.Dur)})
	}
}

// have returns the wrapped backend's capability t, panicking when it is
// absent (nil).
func have[T comparable](ip *Interposer, t T, what string) T {
	var absent T
	if t == absent {
		panic("hisa: backend " + ip.inner.Name() + " does not support " + what)
	}
	return t
}

func (ip *Interposer) conjInner() ConjugateBackend {
	return have(ip, ip.conj, "complex slot operations")
}
func (ip *Interposer) lazyInner() LazyRelinBackend {
	return have(ip, ip.lazy, "deferred relinearization")
}
func (ip *Interposer) fusedInner() FusedRescaleBackend { return have(ip, ip.fused, "fused rescale") }
func (ip *Interposer) bootInner() BootstrapBackend     { return have(ip, ip.boot, "bootstrapping") }

func (ip *Interposer) Encrypt(p Plaintext) Ciphertext {
	return ip.run(&Op{Kind: OpEncrypt}, func(_, _ Ciphertext) Ciphertext { return ip.inner.Encrypt(p) })
}

func (ip *Interposer) Decrypt(c Ciphertext) (p Plaintext) {
	ip.run(&Op{Kind: OpDecrypt, In: c}, func(c, _ Ciphertext) Ciphertext { p = ip.inner.Decrypt(c); return nil })
	return p
}

func (ip *Interposer) Encode(m []float64, f float64) (p Plaintext) {
	ip.run(&Op{Kind: OpEncode}, func(_, _ Ciphertext) Ciphertext { p = ip.inner.Encode(m, f); return nil })
	return p
}

func (ip *Interposer) Decode(p Plaintext) (m []float64) {
	ip.run(&Op{Kind: OpDecode}, func(_, _ Ciphertext) Ciphertext { m = ip.inner.Decode(p); return nil })
	return m
}

func (ip *Interposer) RotLeft(c Ciphertext, x int) Ciphertext {
	if x%ip.Slots() == 0 {
		return ip.inner.RotLeft(c, x)
	}
	return ip.run(&Op{Kind: OpRotLeft, In: c, Rot: x}, func(c, _ Ciphertext) Ciphertext { return ip.inner.RotLeft(c, x) })
}

func (ip *Interposer) RotRight(c Ciphertext, x int) Ciphertext {
	if x%ip.Slots() == 0 {
		return ip.inner.RotRight(c, x)
	}
	return ip.run(&Op{Kind: OpRotRight, In: c, Rot: x}, func(c, _ Ciphertext) Ciphertext { return ip.inner.RotRight(c, x) })
}

// RotLeftMany forwards the batch whole, so hoisting survives wrapping.
func (ip *Interposer) RotLeftMany(c Ciphertext, ks []int) []Ciphertext {
	start := time.Now()
	outs := RotLeftMany(ip.inner, c, ks)
	dur := time.Since(start)
	slots, n := ip.Slots(), 0
	for _, k := range ks {
		if k%slots != 0 {
			n++
		}
	}
	if ip.after == nil || n == 0 {
		return outs
	}
	per := dur / time.Duration(n)
	for i, k := range ks {
		if k%slots == 0 {
			continue
		}
		ip.after(&Op{Kind: OpRotLeft, In: c, Out: outs[i], Rot: k, Start: start, Dur: per})
		start = start.Add(per)
	}
	return outs
}

func (ip *Interposer) Add(c, c2 Ciphertext) Ciphertext {
	return ip.run(&Op{Kind: OpAdd, In: c, In2: c2}, ip.inner.Add)
}

func (ip *Interposer) AddPlain(c Ciphertext, p Plaintext) Ciphertext {
	return ip.run(&Op{Kind: OpAddPlain, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.AddPlain(c, p) })
}

func (ip *Interposer) AddScalar(c Ciphertext, x float64) Ciphertext {
	return ip.run(&Op{Kind: OpAddScalar, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.AddScalar(c, x) })
}

func (ip *Interposer) Sub(c, c2 Ciphertext) Ciphertext {
	return ip.run(&Op{Kind: OpSub, In: c, In2: c2}, ip.inner.Sub)
}

func (ip *Interposer) SubPlain(c Ciphertext, p Plaintext) Ciphertext {
	return ip.run(&Op{Kind: OpSubPlain, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.SubPlain(c, p) })
}

func (ip *Interposer) SubScalar(c Ciphertext, x float64) Ciphertext {
	return ip.run(&Op{Kind: OpSubScalar, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.SubScalar(c, x) })
}

func (ip *Interposer) Mul(c, c2 Ciphertext) Ciphertext {
	op := &Op{Kind: OpMul, In: c, In2: c2}
	out := ip.run(op, ip.inner.Mul)
	ip.mark(OpRelin, op)
	return out
}

func (ip *Interposer) MulPlain(c Ciphertext, p Plaintext) Ciphertext {
	return ip.run(&Op{Kind: OpMulPlain, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.MulPlain(c, p) })
}

func (ip *Interposer) MulScalar(c Ciphertext, x, f float64) Ciphertext {
	return ip.run(&Op{Kind: OpMulScalar, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.MulScalar(c, x, f) })
}

var bigOne = big.NewInt(1)

func (ip *Interposer) Rescale(c Ciphertext, x *big.Int) Ciphertext {
	if x.Cmp(bigOne) == 0 {
		return ip.inner.Rescale(c, x)
	}
	return ip.run(&Op{Kind: OpRescale, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.Rescale(c, x) })
}

func (ip *Interposer) MaxRescale(c Ciphertext, ub *big.Int) (d *big.Int) {
	ip.run(&Op{Kind: OpMaxRescale, In: c}, func(c, _ Ciphertext) Ciphertext { d = ip.inner.MaxRescale(c, ub); return nil })
	return d
}

func (ip *Interposer) LazyRelinCapable() bool { return ip.lazy != nil && ip.lazy.LazyRelinCapable() }

func (ip *Interposer) MulNoRelin(c, c2 Ciphertext) Ciphertext {
	lazy := ip.lazyInner()
	return ip.run(&Op{Kind: OpMul, In: c, In2: c2}, lazy.MulNoRelin)
}

func (ip *Interposer) Relinearize(c Ciphertext) Ciphertext {
	lazy := ip.lazyInner()
	return ip.run(&Op{Kind: OpRelin, In: c}, func(c, _ Ciphertext) Ciphertext { return lazy.Relinearize(c) })
}

func (ip *Interposer) FusedRescaleCapable() bool {
	return ip.fused != nil && ip.fused.FusedRescaleCapable()
}

func (ip *Interposer) RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext {
	fused := ip.fusedInner()
	call := func(c, _ Ciphertext) Ciphertext { return fused.RelinearizeRescale(c, x) }
	if x.Cmp(bigOne) == 0 {
		return ip.run(&Op{Kind: OpRelin, In: c}, call)
	}
	op := &Op{Kind: OpRescale, In: c}
	out := ip.run(op, call)
	ip.mark(OpRelin, op)
	return out
}

func (ip *Interposer) Conjugate(c Ciphertext) Ciphertext {
	conj := ip.conjInner()
	return ip.run(&Op{Kind: OpConj, In: c}, func(c, _ Ciphertext) Ciphertext { return conj.Conjugate(c) })
}

func (ip *Interposer) EncryptC(m []complex128, f float64) Ciphertext {
	conj := ip.conjInner()
	return ip.run(&Op{Kind: OpEncrypt}, func(_, _ Ciphertext) Ciphertext { return conj.EncryptC(m, f) })
}

func (ip *Interposer) DecryptC(c Ciphertext) (m []complex128) {
	conj := ip.conjInner()
	ip.run(&Op{Kind: OpDecrypt, In: c}, func(c, _ Ciphertext) Ciphertext { m = conj.DecryptC(c); return nil })
	return m
}

func (ip *Interposer) AddPlainC(c Ciphertext, m []complex128) Ciphertext {
	conj := ip.conjInner()
	return ip.run(&Op{Kind: OpAddPlain, In: c}, func(c, _ Ciphertext) Ciphertext { return conj.AddPlainC(c, m) })
}

func (ip *Interposer) MulScalarC(c Ciphertext, x complex128, f float64) Ciphertext {
	conj := ip.conjInner()
	return ip.run(&Op{Kind: OpMulScalar, In: c}, func(c, _ Ciphertext) Ciphertext { return conj.MulScalarC(c, x, f) })
}

func (ip *Interposer) BootstrapCapable() bool { return ip.boot != nil && ip.boot.BootstrapCapable() }

func (ip *Interposer) Bootstrap(c Ciphertext) Ciphertext {
	boot := ip.bootInner()
	return ip.run(&Op{Kind: OpBootstrap, In: c}, func(c, _ Ciphertext) Ciphertext { return boot.Bootstrap(c) })
}

func (ip *Interposer) BudgetOf(c Ciphertext) int           { return ip.bootInner().BudgetOf(c) }
func (ip *Interposer) FreshBudget() int                    { return ip.bootInner().FreshBudget() }
func (ip *Interposer) DropToFresh(c Ciphertext) Ciphertext { return ip.bootInner().DropToFresh(c) }
