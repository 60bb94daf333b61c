package htc

import (
	"encoding/binary"
	"fmt"
	"math"

	"chet/internal/circuit"
	"chet/internal/hisa"
)

// Recording builds the program a recording run issues: the compiler's
// analysis (core.Analysis) records every instruction it executes into one,
// each result in a fresh register and each constant in the table. The
// analysis runs below the compiler's hisa.Refresher, so the refreshes and
// the drops to the fresh level it triggers are instructions too.
type Recording struct {
	p *Program
	// quiet is set while one recorded instruction runs on instructions of
	// its own: a scale decision (decide) or the analysis's unfused sum.
	quiet int
	start int // the first instruction of the node being recorded
}

// NewRecording starts an empty program.
func NewRecording() *Recording { return &Recording{p: &Program{}} }

// recorder is the capability of a backend that records into a Recording
// (the compiler's analysis): a scale decision's outcome outs, on operands
// args, is recorded as the one instruction in, with the constant runs builds
// (nil: none) encoded at the first operand's scale, and returned in the
// instruction's registers.
type recorder interface {
	Recording() *Recording
	Decided(in Instr, runs func() []hisa.Run, args, outs []hisa.Ciphertext) []hisa.Ciphertext
}

// decide runs a kernel decision taken from a runtime scale (tryRescale,
// reduceRelin, alignScales, addPlainAt): in a recording run it is one
// instruction, which a program's execution takes again.
func decide(b hisa.Backend, in Instr, runs func() []hisa.Run, args []hisa.Ciphertext, run func() []hisa.Ciphertext) []hisa.Ciphertext {
	rb, ok := hisa.FindCapability[recorder](b)
	if !ok || rb.Recording() == nil || rb.Recording().Quiet() {
		return run()
	}
	return rb.Decided(in, runs, args, rb.Recording().Quietly(run))
}

// Quiet reports whether the instructions running now are inside another.
func (r *Recording) Quiet() bool { return r.quiet > 0 }

// Quietly runs f as the inside of one instruction.
func (r *Recording) Quietly(f func() []hisa.Ciphertext) []hisa.Ciphertext {
	r.quiet++
	defer func() { r.quiet-- }()
	return f()
}

// Emit appends instruction in with operand registers args (none for a
// rotsum) and n results in fresh registers, and returns the first; inside
// another instruction it appends nothing and returns -1.
func (r *Recording) Emit(in Instr, n int, args ...int32) int32 {
	if r.Quiet() {
		return -1
	}
	in.In, in.Out = [2]int32{-1, -1}, int32(r.p.Regs)
	copy(in.In[:], args)
	r.p.Regs += n
	r.p.Instrs = append(r.p.Instrs, in)
	return in.Out
}

// Input is the register of the program's next input ciphertext.
func (r *Recording) Input() int32 {
	r.p.InRegs = append(r.p.InRegs, int32(r.p.Regs))
	r.p.Regs++
	return int32(r.p.Regs - 1)
}

// Constant adds the constant re + i·im (im nil for a real one), each built
// as hisa.RunsBackend describes, at scale to the table and returns its
// index; inside another instruction it builds and adds none.
func (r *Recording) Constant(re, im func() []hisa.Run, scale float64) int32 {
	if r.Quiet() {
		return -1
	}
	// Each in a slice of its own size: the program keeps them.
	r.p.Consts = append(r.p.Consts, Const{
		Re: append([]hisa.Run(nil), built(re)...), Im: append([]hisa.Run(nil), built(im)...), Scale: scale, Level: -1,
	})
	return int32(len(r.p.Consts) - 1)
}

// Use raises constant k's level to level, that of a ciphertext it meets.
func (r *Recording) Use(k int32, level int) {
	if k >= 0 && !r.Quiet() {
		r.p.Consts[k].Level = max(r.p.Consts[k].Level, level)
	}
}

// Sum adds a rotsum's operands and returns their index (Instr.K).
func (r *Recording) Sum(rs RotSum) int32 {
	r.p.Sums = append(r.p.Sums, rs)
	return int32(len(r.p.Sums) - 1)
}

// EndNode attributes the instructions since the last call to circuit node id,
// whose output is out; reg is the register of one of its ciphertexts.
func (r *Recording) EndNode(id int, out *CipherTensor, reg func(hisa.Ciphertext) int32) {
	for i := r.start; i < len(r.p.Instrs); i++ {
		r.p.Instrs[i].Node = int32(id)
	}
	r.start = len(r.p.Instrs)
	s := Span{Node: int32(id), End: int32(r.start), Out: metaClone(out)}
	for _, c := range out.CTs {
		s.Regs = append(s.Regs, reg(c))
	}
	r.p.Spans = append(r.p.Spans, s)
}

// Program finishes the recording of circuit circ: in is the tensor the run
// encrypted, and the output is the output node's (EndNode). Constants
// nothing reads are dropped and equal ones shared.
func (r *Recording) Program(circ *circuit.Circuit, in *CipherTensor) *Program {
	p := r.p
	if len(p.InRegs) != len(in.CTs) {
		panic(fmt.Sprintf("htc: %d encryptions recorded for a %d-ciphertext input", len(p.InRegs), len(in.CTs)))
	}
	p.Circuit, p.In = circ, metaClone(in)
	index := map[string]int32{}
	remap := make([]int32, len(p.Consts)) // 1 + the new index
	var table []Const
	keep := func(k *int32) {
		if remap[*k] == 0 {
			key := constKey(p.Consts[*k])
			if _, ok := index[key]; !ok {
				index[key] = int32(len(table))
				table = append(table, p.Consts[*k])
			}
			remap[*k] = index[key] + 1
		}
		*k = remap[*k] - 1
	}
	for i := range p.Instrs {
		p.EachConst(i, keep)
	}
	p.Consts = table
	p.fuseRescales()
	return p
}

// fuseRescales moves rescale decisions into the rotsums they follow: a
// rotsum whose every output is read once, by a tryrescale of one base, and
// is no node's output, takes that base (Instr.F) and the decisions' plan,
// the decisions are dropped, and their readers read the rotsum's outputs.
// Under prime-aligned scales every weighted sum meets such a rescale, and
// RotSum then takes the division inside the sum's ModDown.
func (p *Program) fuseRescales() {
	reads := make([]int32, p.Regs)
	reader := make([]int32, p.Regs)
	for i := range p.Instrs {
		for _, r := range p.operands(i) {
			reads[r]++
			reader[r] = int32(i)
		}
	}
	for _, s := range p.Spans {
		for _, r := range s.Regs {
			reads[r]++ // kept: a node's output is read whole
		}
	}
	rename := make([]int32, p.Regs)
	for r := range rename {
		rename[r] = int32(r)
	}
	drop := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op != OpRotSum {
			continue
		}
		n, base := p.results(i), 0.0
		for k := int32(0); k < n; k++ {
			r := in.Out + k
			j := &p.Instrs[reader[r]]
			if reads[r] != 1 || j.Op != OpTryRescale || k > 0 && j.F != base {
				base = 0
				break
			}
			base = j.F
		}
		if base == 0 {
			continue
		}
		first := &p.Instrs[reader[in.Out]]
		in.F, in.Level, in.Scale = base, first.Level, first.Scale
		for k := int32(0); k < n; k++ {
			j := reader[in.Out+k]
			drop[j] = true
			rename[p.Instrs[j].Out] = in.Out + k
		}
	}
	kept, end := p.Instrs[:0], make([]int32, len(p.Instrs)+1) // end[i]: kept instructions before i
	for i, in := range p.Instrs {
		end[i] = int32(len(kept))
		if drop[i] {
			continue
		}
		for a := range in.In {
			if in.In[a] >= 0 {
				in.In[a] = rename[in.In[a]]
			}
		}
		kept = append(kept, in)
	}
	end[len(p.Instrs)] = int32(len(kept))
	p.Instrs = kept
	for _, rs := range p.Sums {
		for i, r := range rs.Srcs {
			rs.Srcs[i] = rename[r]
		}
	}
	for i := range p.Spans {
		s := &p.Spans[i]
		s.End = end[s.End]
		for k, r := range s.Regs {
			s.Regs[k] = rename[r]
		}
	}
}

// EachConst calls f with the index of every constant instruction i reads,
// in the order it reads them (a rotsum's in its terms).
func (p *Program) EachConst(i int, f func(k *int32)) {
	switch in := &p.Instrs[i]; in.Op {
	case OpRotSum:
		for _, terms := range p.Sums[in.K].Sums {
			for j := range terms {
				if terms[j].K >= 0 {
					f(&terms[j].K)
				}
			}
		}
	case OpAddPlain, OpSubPlain, OpAddPlainC, OpMulPlain, OpAddPlainAt:
		if in.K >= 0 {
			f(&in.K)
		}
	}
}

// constKey is the identity of a constant: its runs, scale and level.
func constKey(c Const) string {
	var buf []byte
	for _, rs := range [][]hisa.Run{c.Re, c.Im} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rs)))
		for _, x := range rs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x.Start)<<32|uint64(x.Len))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x.Value))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Scale))
	return string(binary.LittleEndian.AppendUint64(buf, uint64(c.Level)))
}
