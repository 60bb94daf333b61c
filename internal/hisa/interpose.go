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
	// none — or where the operand never exists, as for the rescale of a sum
	// of rotations that divides inside its ModDown (RotSum with a divide).
	// A before-hook may replace them; the Interposer frees a replacement
	// once the instruction and its after-hook have run.
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

// Interposer is the single forwarding implementation of Backend,
// RunsBackend and the optional LeveledEncodeBackend: it turns every call
// into an Op and hands it to a before-hook (ahead of the wrapped call,
// single-result instructions only) and an after-hook. Meter, Refresher and telemetry.Tracer are observers
// that embed one. The accounting rules live here and nowhere else:
//
//   - a rotation by a multiple of Slots and a rescale by 1 are non-ops:
//     forwarded, reported to no hook;
//   - Mul is a mul followed by a zero-duration relin marker (every backend
//     relinearizes inside Mul); MulNoRelin is the mul alone and the deferred
//     Relinearize the relin, with its real duration;
//   - RelinearizeRescale is a full-duration rescale followed by a relin
//     marker, or, with divisor 1, just the relin;
//   - RotSum is the instructions RotSumUnfused issues for it — one rotl
//     per distinct rotation, one mulplain or mulscalar per weighted term, an
//     add per term after a sum's first — the call's duration split evenly
//     between them, whether the wrapped backend fuses the sums or not, and
//     one rescale per output it divides;
//   - Bootstrap is one instruction: its interior runs below the HISA;
//   - EncodeAt, EncodeCAt and EncodeRuns are encodes, like Encode, and
//     AddPlainCRuns an addplain, like AddPlainC.
//
// The leveled-encoding and runs methods exist whatever the wrapped backend
// supports, so callers gate on AsLeveledEncode (which consults the
// LeveledEncodeCapable flag forwarded here); calling one the backend lacks
// panics, as the wrapped backend's Bootstrap does without a bootstrapper.
// An Interposer is as safe for concurrent use as its hooks are.
type Interposer struct {
	inner  Backend
	tag    string
	before func(*Op)
	after  func(*Op)

	level LeveledEncodeBackend
	runs  RunsBackend
}

var (
	_ Backend              = (*Interposer)(nil)
	_ LeveledEncodeBackend = (*Interposer)(nil)
	_ RunsBackend          = (*Interposer)(nil)
	_ Unwrapper            = (*Interposer)(nil)
)

// NewInterposer wraps inner; tag is appended to its name. Either hook may be
// nil.
func NewInterposer(inner Backend, tag string, before, after func(*Op)) Interposer {
	ip := Interposer{inner: inner, tag: tag, before: before, after: after}
	ip.level, _ = inner.(LeveledEncodeBackend)
	ip.runs, _ = inner.(RunsBackend)
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

func (ip *Interposer) levelInner() LeveledEncodeBackend {
	return have(ip, ip.level, "leveled encoding")
}

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

func (ip *Interposer) LeveledEncodeCapable() bool {
	return ip.level != nil && ip.level.LeveledEncodeCapable()
}

func (ip *Interposer) EncodeAt(m []float64, f float64, level int) (p Plaintext) {
	enc := ip.levelInner()
	ip.run(&Op{Kind: OpEncode}, func(_, _ Ciphertext) Ciphertext { p = enc.EncodeAt(m, f, level); return nil })
	return p
}

func (ip *Interposer) EncodeCAt(m []complex128, f float64, level int) (p Plaintext) {
	enc := ip.levelInner()
	ip.run(&Op{Kind: OpEncode}, func(_, _ Ciphertext) Ciphertext { p = enc.EncodeCAt(m, f, level); return nil })
	return p
}

func (ip *Interposer) LevelOf(c Ciphertext) int { return ip.levelInner().LevelOf(c) }

func (ip *Interposer) EncodeRuns(runs func() []Run, f float64) (p Plaintext) {
	enc := have(ip, ip.runs, "constants as runs")
	ip.run(&Op{Kind: OpEncode}, func(_, _ Ciphertext) Ciphertext { p = enc.EncodeRuns(runs, f); return nil })
	return p
}

func (ip *Interposer) AddPlainCRuns(c Ciphertext, re, im func() []Run) Ciphertext {
	inner := have(ip, ip.runs, "constants as runs")
	return ip.run(&Op{Kind: OpAddPlain, In: c}, func(c, _ Ciphertext) Ciphertext { return inner.AddPlainCRuns(c, re, im) })
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

// RotSum forwards the sums whole and reports them as their unfused
// sequence, each divided output followed by its rescale.
func (ip *Interposer) RotSum(srcs []Ciphertext, sums [][]Term, divide func(Ciphertext) *big.Int) []Ciphertext {
	start := time.Now()
	var divs []*big.Int
	if divide != nil {
		inner := divide
		divide = func(c Ciphertext) *big.Int {
			divs = append(divs, inner(c))
			return divs[len(divs)-1]
		}
	}
	outs := ip.inner.RotSum(srcs, sums, divide)
	if ip.after != nil {
		ip.reportRotSum(srcs, sums, outs, divs, start, time.Since(start))
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

func (ip *Interposer) MulNoRelin(c, c2 Ciphertext) Ciphertext {
	return ip.run(&Op{Kind: OpMul, In: c, In2: c2}, ip.inner.MulNoRelin)
}

func (ip *Interposer) Relinearize(c Ciphertext) Ciphertext {
	return ip.run(&Op{Kind: OpRelin, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.Relinearize(c) })
}

func (ip *Interposer) RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext {
	call := func(c, _ Ciphertext) Ciphertext { return ip.inner.RelinearizeRescale(c, x) }
	if x.Cmp(bigOne) == 0 {
		return ip.run(&Op{Kind: OpRelin, In: c}, call)
	}
	op := &Op{Kind: OpRescale, In: c}
	out := ip.run(op, call)
	ip.mark(OpRelin, op)
	return out
}

func (ip *Interposer) Conjugate(c Ciphertext) Ciphertext {
	return ip.run(&Op{Kind: OpConj, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.Conjugate(c) })
}

func (ip *Interposer) EncryptC(m []complex128, f float64) Ciphertext {
	return ip.run(&Op{Kind: OpEncrypt}, func(_, _ Ciphertext) Ciphertext { return ip.inner.EncryptC(m, f) })
}

func (ip *Interposer) DecryptC(c Ciphertext) (m []complex128) {
	ip.run(&Op{Kind: OpDecrypt, In: c}, func(c, _ Ciphertext) Ciphertext { m = ip.inner.DecryptC(c); return nil })
	return m
}

func (ip *Interposer) AddPlainC(c Ciphertext, m []complex128) Ciphertext {
	return ip.run(&Op{Kind: OpAddPlain, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.AddPlainC(c, m) })
}

func (ip *Interposer) MulScalarC(c Ciphertext, x complex128, f float64) Ciphertext {
	return ip.run(&Op{Kind: OpMulScalar, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.MulScalarC(c, x, f) })
}

func (ip *Interposer) BootstrapCapable() bool { return ip.inner.BootstrapCapable() }

func (ip *Interposer) Bootstrap(c Ciphertext) Ciphertext {
	return ip.run(&Op{Kind: OpBootstrap, In: c}, func(c, _ Ciphertext) Ciphertext { return ip.inner.Bootstrap(c) })
}

func (ip *Interposer) BudgetOf(c Ciphertext) int           { return ip.inner.BudgetOf(c) }
func (ip *Interposer) FreshBudget() int                    { return ip.inner.FreshBudget() }
func (ip *Interposer) DropToFresh(c Ciphertext) Ciphertext { return ip.inner.DropToFresh(c) }
