package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// fpVersion tags the canonical encoding below; bump it whenever the byte
// layout of the digest changes, or the program the same inputs compile to
// (v8: the recorded program, hashed whole; v9: a rotsum may take its
// outputs' rescale decision, Instr.F), so old and new binaries never agree
// by accident.
const fpVersion = "chet-fingerprint-v9"

// Fingerprint returns a stable digest of everything that must match between
// two parties for their homomorphic executions of this compilation to be
// interchangeable: the compiler options, the selected encryption parameters,
// the layout policy, the fixed-point scales, the rotation-key set, and the
// circuit itself (structure and weights) and the program it compiles to.
// Client and server exchange it at
// session-open so a compilation mismatch is detected before any ciphertext
// is wasted on an incompatible evaluation.
//
// The digest is a pure function of the Compiled value: compiling the same
// circuit with the same Options on any machine yields the same fingerprint.
func (c *Compiled) Fingerprint() [32]byte {
	h := sha256.New()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	i64 := func(v int) { u64(uint64(int64(v))) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		i64(len(s))
		h.Write([]byte(s))
	}
	ints := func(vs []int) {
		i64(len(vs))
		for _, v := range vs {
			i64(v)
		}
	}
	floats := func(vs []float64) {
		i64(len(vs))
		for _, v := range vs {
			f64(v)
		}
	}
	tens := func(t *tensor.Tensor) {
		if t == nil {
			i64(-1)
			return
		}
		ints(t.Shape)
		floats(t.Data)
	}

	str(fpVersion)

	// Options: every field, so any change in how the circuit was compiled
	// flips the digest (defaults are filled before Compile stores Options,
	// so an explicit default and an omitted field agree, as they must).
	o := c.Options
	i64(int(o.Scheme))
	f64(o.Scales.Pc)
	f64(o.Scales.Pw)
	f64(o.Scales.Pu)
	f64(o.Scales.Pm)
	i64(o.SecurityBits)
	i64(o.RNSPrimeBits)
	f64(o.MagMarginBits)
	i64(o.MinLogN)
	i64(o.MaxLogN)
	i64(len(o.Policies))
	for _, p := range o.Policies {
		i64(int(p))
	}
	if o.CostModel == nil {
		i64(0)
	} else {
		m := *o.CostModel
		i64(1)
		i64(int(m.Scheme))
		f64(m.CAdd)
		f64(m.CScalarMul)
		f64(m.CPlainMul)
		f64(m.CCtMul)
		f64(m.CRotate)
		f64(m.CRescale)
		f64(m.CRotHoistSetup)
		f64(m.CRotHoistStep)
	}
	if o.PowerOfTwoRotationsOnly {
		i64(1)
	} else {
		i64(0)
	}
	i64(o.Batch)
	if o.Complex {
		i64(1)
	} else {
		i64(0)
	}
	if o.Bootstrap == nil {
		i64(-1)
	} else {
		i64(o.Bootstrap.Window)
		i64(o.Bootstrap.Degree)
		i64(o.Bootstrap.Floor)
	}

	// The compiler's decisions: parameters, layout, rotation set.
	b := c.Best
	i64(int(b.Policy))
	i64(b.LogN)
	f64(b.LogQ)
	ints(b.RNSChainBits)
	i64(b.SpecialBits)
	// α shapes every switching key (digit count, rows per digit): parties
	// that disagree on it cannot exchange evaluation keys.
	i64(b.SpecialPrimes)
	ints(b.Rotations)
	i64(b.RotationOps)
	i64(b.Batch)
	i64(b.Bootstraps)

	// The bootstrap plan: both parties must refresh at the same sites with
	// the same spec, or ciphertext levels (and every scale downstream of a
	// refresh) diverge. Hashed as the spec's chain-shaping fields plus the
	// ordered placement skeleton.
	if c.BootPlan == nil {
		i64(-1)
	} else {
		p := c.BootPlan
		i64(p.Spec.LogN)
		i64(p.Spec.LogSlots)
		i64(p.Spec.Q0Bits)
		i64(p.Spec.PrimeBits)
		i64(p.Spec.C2SBits)
		i64(p.Spec.Degree)
		i64(p.Spec.K)
		i64(p.Spec.DoubleAngles)
		i64(p.Window)
		i64(p.Floor)
		i64(len(p.Placements))
		for _, pl := range p.Placements {
			i64(pl.Node)
			i64(pl.LevelBefore)
			i64(pl.LevelAfter)
		}
	}

	// The key plan: every switching key's level shapes the key (digits,
	// rows), and the server admits uploads only in the planned shape.
	if k := c.Keys; k == nil {
		i64(-1)
	} else {
		amounts := make([]int, 0, len(k.Rotations))
		for a := range k.Rotations {
			amounts = append(amounts, a)
		}
		sort.Ints(amounts)
		i64(len(amounts))
		for _, a := range amounts {
			i64(a)
			i64(k.Rotations[a])
		}
		i64(k.Relin)
		i64(k.Conjugate)
	}

	// The circuit: structure, attributes, and weight values. Two circuits
	// that differ only in weights execute compatibly but predict different
	// things, which is exactly the kind of silent divergence a session-open
	// check exists to catch.
	str(c.Circuit.Name)
	i64(len(c.Circuit.Nodes))
	for _, n := range c.Circuit.Nodes {
		i64(n.ID)
		i64(int(n.Kind))
		str(n.Name)
		i64(len(n.Inputs))
		for _, in := range n.Inputs {
			i64(in.ID)
		}
		i64(n.Stride)
		i64(n.Pad)
		i64(n.Window)
		f64(n.ActA)
		f64(n.ActB)
		floats(n.Coeffs)
		tens(n.Weights)
		tens(n.Bias)
		ints(n.OutShape)
	}
	i64(c.Circuit.Output.ID)

	// The program both parties execute: every instruction and constant,
	// streamed field by field (a program is megabytes; no copy of it is
	// made).
	p := c.Code
	i64(len(p.Instrs))
	for _, in := range p.Instrs {
		for _, v := range [...]int32{int32(in.Op), in.Node, in.Level, in.In[0], in.In[1], in.Out, in.K, in.Rot} {
			i64(int(v))
		}
		for _, v := range [...]float64{in.Scale, in.X, in.Y, in.F} {
			f64(v)
		}
	}
	for _, rs := range p.Sums {
		i64(len(rs.Srcs))
		for _, r := range rs.Srcs {
			i64(int(r))
		}
		for _, terms := range rs.Sums {
			i64(len(terms))
			for _, t := range terms {
				for _, v := range [...]int32{t.Src, t.Rot, t.K} {
					i64(int(v))
				}
				f64(t.X)
				f64(t.F)
			}
		}
	}
	for _, k := range p.Consts {
		for _, runs := range [2][]hisa.Run{k.Re, k.Im} {
			i64(len(runs))
			for _, r := range runs {
				i64(int(r.Start))
				i64(int(r.Len))
				f64(r.Value)
			}
		}
		f64(k.Scale)
		i64(k.Level)
	}

	var out [32]byte
	h.Sum(out[:0])
	return out
}

// FingerprintHex renders the fingerprint as a hex string for logs and
// human-facing diagnostics.
func (c *Compiled) FingerprintHex() string {
	fp := c.Fingerprint()
	return hex.EncodeToString(fp[:])
}
