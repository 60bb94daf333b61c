package htc

import (
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"sync/atomic"

	"chet/internal/circuit"
	"chet/internal/hisa"
)

// Program is a compiled homomorphic program: the straight-line HISA
// instructions over virtual registers that one execution of a circuit
// issues. The compiler's recording run is the only run of the kernels
// (Recording); every execution replays the program and builds no weight or
// mask vector. The bootstraps the compiler placed are instructions of it.
//
// A decision a kernel takes from a runtime scale — whether and by what to
// rescale (tryRescale, reduceRelin), how to align two scales (alignScales),
// the scale a bias is encoded at (addPlainAt) — is one instruction that
// Execute takes again through the same helper, so the analysis's idealized
// scales never reach the program.
type Program struct {
	Instrs []Instr
	Consts []Const  // the constant table plaintext operands index
	Sums   []RotSum // the operands of every rotsum (Instr.K indexes it)
	Regs   int      // the number of virtual registers
	// In is the input tensor's layout; InRegs hold its ciphertexts'
	// registers.
	In     CipherTensor
	InRegs []int32
	// Spans closes every circuit node's instructions, in circuit order; the
	// output node's span holds the program's output (Output).
	Spans   []Span
	Circuit *circuit.Circuit
	// Counts tallies the HISA instructions the recording run issued, under
	// hisa.Interposer's accounting: what one execution issues, but for the
	// encodes and encryptions, which are its caller's.
	Counts hisa.OpCounts

	prep sync.Once
	uses []int32   // reads of each register
	next [][]int32 // the instructions reading each instruction's results
	// encoded caches each constant's plaintext on a backend with leveled
	// plaintexts; plaintexts and bytes tally what it holds.
	encoded           []encoded
	plaintexts, bytes atomic.Int64
}

// Op is a program instruction's operation.
type Op uint8

// The HISA instructions the kernels issue, the bootstrap pipeline's two, and
// the four scale decisions. In[0] and In[1] are the operands, K a constant
// (a rotsum's Sums entry), X, Y and F the scalars; a decision's F is its
// base, and so is a rotsum's that takes its outputs' rescale decisions
// (Recording.Program fuses them into it; 0: none).
const (
	OpRotLeft Op = iota
	OpRotRight
	OpRotSum
	OpAdd
	OpSub
	OpAddPlain
	OpSubPlain
	OpAddPlainC // a complex constant, at the operand's scale
	OpAddScalar
	OpSubScalar
	OpMul
	OpMulNoRelin
	OpRelin
	OpMulPlain
	OpMulScalar  // X at scale F
	OpMulScalarC // X + iY at scale F
	OpConj
	OpCopy
	OpBootstrap
	OpDropToFresh
	OpTryRescale
	OpReduceRelin
	OpAlign      // two results
	OpAddPlainAt // K encoded at In[0]'s scale
	NumOps
)

var opNames = [NumOps]string{"rotl", "rotr", "rotsum", "add", "sub", "addplain", "subplain", "addplainc",
	"addscalar", "subscalar", "mul", "mulnorelin", "relin", "mulplain", "mulscalar", "mulscalarc",
	"conj", "copy", "bootstrap", "droptofresh", "tryrescale", "reducerelin", "align", "addplainat"}

func (o Op) String() string { return opNames[o] }

// Instr is one program instruction. Node is the ID of the circuit node whose
// kernel issued it; Level (-1 where the target has no levels) and Scale are
// its first result's plan. Its results are registers Out onwards.
type Instr struct {
	Op             Op
	Node, Level    int32
	In             [2]int32 // -1: no operand
	Out, K, Rot    int32
	Scale, X, Y, F float64
}

// RotSum is a rotsum's sources and sums (hisa.Backend.RotSum).
type RotSum struct {
	Srcs []int32
	Sums [][]Term
}

// Term is one summand: source Srcs[Src] rotated left by Rot, times Consts[K]
// when K >= 0, else X at scale F when F is non-zero, else 1.
type Term struct {
	Src, Rot, K int32
	X, F        float64
}

// Const is a slot vector stored as its nonzero runs, as the kernels built
// it (Im: the imaginary part, for addplainc), encoded at Scale (0: at the
// scale of the ciphertext it meets) and Level, the highest level of a
// ciphertext it meets (-1 where the target has no levels).
type Const struct {
	Re, Im []hisa.Run
	Scale  float64
	Level  int
}

// Span closes circuit node Node's instructions: they end before End. Out is
// the node's output layout and Regs its ciphertexts' registers, written by
// the node or by an earlier one (a flatten's are its input's).
type Span struct {
	Node, End int32
	Out       CipherTensor
	Regs      []int32
}

type encoded struct {
	once  sync.Once
	pt    hisa.Plaintext
	scale float64
	level int
}

// Plaintexts reports how many constants Execute holds encoded.
func (p *Program) Plaintexts() int { return int(p.plaintexts.Load()) }

// Bytes reports what those plaintexts hold: (ℓ+1)·N·8 bytes at level ℓ.
func (p *Program) Bytes() int64 { return p.bytes.Load() }

// operands lists instruction i's operand registers, one per read.
func (p *Program) operands(i int) []int32 {
	switch in := &p.Instrs[i]; {
	case in.Op == OpRotSum:
		return p.Sums[in.K].Srcs
	case in.In[1] >= 0:
		return in.In[:]
	case in.In[0] >= 0:
		return in.In[:1]
	}
	return nil
}

// results is the number of registers instruction i writes from Out on.
func (p *Program) results(i int) int32 {
	switch p.Instrs[i].Op {
	case OpRotSum:
		return int32(len(p.Sums[p.Instrs[i].K].Sums))
	case OpAlign:
		return 2
	}
	return 1
}

// prepare derives, once, what scheduling and freeing need.
func (p *Program) prepare() {
	p.prep.Do(func() {
		p.uses, p.next, p.encoded = make([]int32, p.Regs), make([][]int32, len(p.Instrs)), make([]encoded, len(p.Consts))
		prod := make([]int32, p.Regs)
		for r := range prod {
			prod[r] = -1
		}
		for i := range p.Instrs {
			for _, r := range p.operands(i) {
				p.uses[r]++
				if j := prod[r]; j >= 0 && (len(p.next[j]) == 0 || p.next[j][len(p.next[j])-1] != int32(i)) {
					p.next[j] = append(p.next[j], int32(i))
				}
			}
			for r := p.Instrs[i].Out; r < p.Instrs[i].Out+p.results(i); r++ {
				prod[r] = int32(i)
			}
		}
	})
}

// Execute runs the program on b: in must have the program's input layout
// (Compiled.Encrypt's). Each circuit node's instructions run in turn, in a
// scope of their own on a backend that opens scopes (telemetry.Tracer);
// within a node, ready instructions run on up to workers goroutines, lowest
// index first, and each instruction spreads its own work across as many
// (RNS limbs, the mocks' sums of rotations). A register is released at its
// last read, for the collector to reclaim: handing it to Backend.Free, which
// returns RNS limbs to the ring arena's pools, held more memory at peak, as
// pooled buffers outlive a collection. Every instruction is a deterministic
// function of its operands, so the result is bit-identical at every worker
// count.
//
// Constants are encoded where used: on a backend with leveled plaintexts once
// per program, at the constant's level — complex ones too, but for the
// slot-uniform ones AddPlainC adds exactly — elsewhere per use. observe, when
// non-nil, sees each instruction's results as it completes.
func (p *Program) Execute(b hisa.Backend, in *CipherTensor, workers int, observe func(i int, outs []hisa.Ciphertext)) *CipherTensor {
	out := p.Output()
	return p.run(b, in, workers, observe, out.Regs).tensor(out.Out, out.Regs)
}

// Output is the span of the circuit's output node.
func (p *Program) Output() *Span {
	for i := range p.Spans {
		if int(p.Spans[i].Node) == p.Circuit.Output.ID {
			return &p.Spans[i]
		}
	}
	panic("htc: program without an output node")
}

// ExecuteNodes is Execute that returns every circuit node's output, one per
// span, in circuit order.
func (p *Program) ExecuteNodes(b hisa.Backend, in *CipherTensor, workers int) []*CipherTensor {
	var keep []int32
	for _, s := range p.Spans {
		keep = append(keep, s.Regs...)
	}
	x := p.run(b, in, workers, nil, keep)
	outs := make([]*CipherTensor, len(p.Spans))
	for i, s := range p.Spans {
		outs[i] = x.tensor(s.Out, s.Regs)
	}
	return outs
}

// run executes the program as Execute describes, keeping the registers keep
// names to the end.
func (p *Program) run(b hisa.Backend, in *CipherTensor, workers int, observe func(i int, outs []hisa.Ciphertext), keep []int32) *exec {
	p.prepare()
	if len(in.CTs) != len(p.InRegs) || !reflect.DeepEqual(metaClone(in), p.In) {
		panic(fmt.Sprintf("htc: a %dx%dx%d %v tensor of %d ciphertexts is not the program's input layout",
			in.C, in.H, in.W, in.Layout, len(in.CTs)))
	}
	x := &exec{p: p, b: b, observe: observe, regs: make([]hisa.Ciphertext, p.Regs), uses: append([]int32(nil), p.uses...)}
	if x.enc, _ = hisa.AsLeveledEncode(b); x.enc == nil {
		x.runs, _ = hisa.AsRuns(b)
	}
	for i, r := range p.InRegs {
		x.regs[r] = in.CTs[i]
	}
	for _, r := range keep { // a read no instruction makes
		x.uses[r]++
	}
	workers = max(workers, 1)
	if ip, ok := hisa.FindCapability[intraOpParallel](b); ok {
		ip.SetIntraOpWorkers(workers)
	}
	sc, _ := hisa.FindCapability[scoper](b)
	lo := 0
	for _, s := range p.Spans {
		if n := p.Circuit.Nodes[s.Node]; sc != nil && n.Kind != circuit.OpInput {
			end := sc.StartScope(fmt.Sprintf("%v:%s", n.Kind, n.Name))
			x.segment(lo, int(s.End), workers)
			end()
		} else {
			x.segment(lo, int(s.End), workers)
		}
		lo = int(s.End)
	}
	return x
}

// tensor is the tensor of layout meta whose ciphertexts are in registers regs.
func (x *exec) tensor(meta CipherTensor, regs []int32) *CipherTensor {
	for _, r := range regs {
		meta.CTs = append(meta.CTs, x.regs[r])
	}
	return &meta
}

// exec is one execution's register file.
type exec struct {
	p       *Program
	b       hisa.Backend
	enc     hisa.LeveledEncodeBackend
	runs    hisa.RunsBackend // a backend without enc that takes runs
	observe func(i int, outs []hisa.Ciphertext)
	regs    []hisa.Ciphertext
	uses    []int32 // reads still to come
}

// segment runs instructions [lo, hi) on up to workers goroutines (the
// calling one included), the lowest ready index first. A panic stops the
// segment and is raised again on the calling goroutine.
func (x *exec) segment(lo, hi, workers int) {
	pending := make([]int32, hi-lo)
	for i := lo; i < hi; i++ {
		for _, j := range x.p.next[i] {
			if int(j) < hi {
				pending[int(j)-lo]++
			}
		}
	}
	var ready []int
	for i := lo; i < hi; i++ {
		if pending[i-lo] == 0 {
			ready = append(ready, i)
		}
	}
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	left := hi - lo
	var failure any
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			for len(ready) == 0 && left > 0 && failure == nil {
				cond.Wait()
			}
			if left == 0 || failure != nil {
				return
			}
			k := 0
			for j := range ready {
				if ready[j] < ready[k] {
					k = j
				}
			}
			i := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			mu.Unlock()
			outs, err := x.step(i)
			mu.Lock()
			if err != nil {
				failure = err
			} else {
				x.retire(i, outs)
				left--
				for _, j := range x.p.next[i] {
					if int(j) < hi {
						if pending[int(j)-lo]--; pending[int(j)-lo] == 0 {
							ready = append(ready, int(j))
						}
					}
				}
			}
			cond.Broadcast()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, hi-lo); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// retire stores instruction i's results, those something reads, and
// releases every register it read for the last time.
func (x *exec) retire(i int, outs []hisa.Ciphertext) {
	if x.observe != nil {
		x.observe(i, outs)
	}
	for k, c := range outs {
		if r := x.p.Instrs[i].Out + int32(k); x.uses[r] > 0 {
			x.regs[r] = c
		}
	}
	for _, q := range x.p.operands(i) {
		if x.uses[q]--; x.uses[q] == 0 {
			x.regs[q] = nil
		}
	}
}

// step computes instruction i's results; a panic is returned.
func (x *exec) step(i int) (outs []hisa.Ciphertext, failure any) {
	defer func() {
		if r := recover(); r != nil {
			failure = r
		}
	}()
	b, in := x.b, &x.p.Instrs[i]
	var a, c hisa.Ciphertext
	if in.In[0] >= 0 {
		a = x.regs[in.In[0]]
	}
	if in.In[1] >= 0 {
		c = x.regs[in.In[1]]
	}
	switch in.Op {
	case OpRotLeft:
		a = b.RotLeft(a, int(in.Rot))
	case OpRotRight:
		a = b.RotRight(a, int(in.Rot))
	case OpRotSum:
		return x.rotSum(&x.p.Sums[in.K], in.F), nil
	case OpAdd:
		a = b.Add(a, c)
	case OpSub:
		a = b.Sub(a, c)
	case OpAddPlain, OpAddPlainAt:
		a = b.AddPlain(a, x.plain(in.K, a))
	case OpSubPlain:
		a = b.SubPlain(a, x.plain(in.K, a))
	case OpAddPlainC:
		a = x.addPlainC(in.K, a)
	case OpAddScalar:
		a = b.AddScalar(a, in.X)
	case OpSubScalar:
		a = b.SubScalar(a, in.X)
	case OpMul:
		a = b.Mul(a, c)
	case OpMulNoRelin:
		a = b.MulNoRelin(a, c)
	case OpRelin:
		a = b.Relinearize(a)
	case OpMulPlain:
		a = b.MulPlain(a, x.plain(in.K, a))
	case OpMulScalar:
		a = b.MulScalar(a, in.X, in.F)
	case OpMulScalarC:
		a = b.MulScalarC(a, complex(in.X, in.Y), in.F)
	case OpConj:
		a = b.Conjugate(a)
	case OpCopy:
		a = b.Copy(a)
	case OpBootstrap: // a backend without a bootstrapper panics descriptively
		a = b.Bootstrap(a)
	case OpDropToFresh:
		a = b.DropToFresh(a)
	case OpTryRescale:
		a = rescaled(b, a, in.F)
	case OpReduceRelin:
		a = relinearized(b, a, in.F)
	case OpAlign:
		a, c = aligned(b, a, c)
		return []hisa.Ciphertext{a, c}, nil
	}
	return []hisa.Ciphertext{a}, nil
}

// rotSum computes a rotsum's sums and, with a base, takes each output's
// rescale decision (tryRescale) inside the one instruction. A backend that
// encodes per use encodes each constant once per instruction at each scale
// its terms ask for, not once per term.
func (x *exec) rotSum(rs *RotSum, base float64) []hisa.Ciphertext {
	srcs := make([]hisa.Ciphertext, len(rs.Srcs))
	for i, r := range rs.Srcs {
		srcs[i] = x.regs[r]
	}
	type use struct {
		k     int32
		scale float64
	}
	var encoded map[use]hisa.Plaintext
	sums := make([][]hisa.Term, len(rs.Sums))
	for o, terms := range rs.Sums {
		for _, t := range terms {
			ht := hisa.Term{Src: int(t.Src), Rot: int(t.Rot), X: t.X, F: t.F}
			switch c := srcs[t.Src]; {
			case t.K < 0:
			case x.enc != nil:
				ht.Plain = x.plain(t.K, c)
			default:
				u := use{t.K, x.scale(t.K, c)}
				if ht.Plain = encoded[u]; ht.Plain == nil {
					if encoded == nil {
						encoded = map[use]hisa.Plaintext{}
					}
					ht.Plain = x.plain(t.K, c)
					encoded[u] = ht.Plain
				}
			}
			sums[o] = append(sums[o], ht)
		}
	}
	var divide func(hisa.Ciphertext) *big.Int
	if base != 0 {
		divide = func(c hisa.Ciphertext) *big.Int {
			if d := rescaleDivisor(x.b, c, base); d != nil {
				return d
			}
			return big.NewInt(1)
		}
	}
	return x.b.RotSum(srcs, sums, divide)
}

// plain returns constant k's plaintext for an instruction on ciphertext c.
// A backend without leveled encoding encodes it per use, straight from its
// runs where the backend takes runs (AsRuns: one slot vector, not the
// expansion and Encode's copy of it). On a leveled backend it is encoded
// once, at the constant's level — a complex one (addplainc's) as complex —
// and an operand above that level or at another scale than the cached
// plaintext's (neither happens in the program the compiler planned) gets
// its own.
func (x *exec) plain(k int32, c hisa.Ciphertext) hisa.Plaintext {
	con, slots := &x.p.Consts[k], x.b.Slots()
	scale := x.scale(k, c)
	if x.runs != nil {
		return x.runs.EncodeRuns(func() []hisa.Run { return con.Re }, scale)
	}
	if x.enc == nil {
		return x.b.Encode(hisa.Expand(con.Re, slots), scale)
	}
	encode := func(level int) hisa.Plaintext {
		if con.Im != nil {
			return x.enc.EncodeCAt(hisa.ExpandC(con.Re, con.Im, slots), scale, level)
		}
		return x.enc.EncodeAt(hisa.Expand(con.Re, slots), scale, level)
	}
	level, e := x.enc.LevelOf(c), &x.p.encoded[k]
	e.once.Do(func() {
		e.scale, e.level = scale, max(con.Level, level)
		e.pt = encode(e.level)
		x.p.plaintexts.Add(1)
		x.p.bytes.Add(int64(e.level+1) * int64(2*slots) * 8)
	})
	if e.scale != scale || e.level < level {
		return encode(level)
	}
	return e.pt
}

// scale is the scale constant k is encoded at for an instruction on c: its
// own, or c's for a constant added at the operand's scale.
func (x *exec) scale(k int32, c hisa.Ciphertext) float64 {
	if s := x.p.Consts[k].Scale; s != 0 {
		return s
	}
	return x.b.Scale(c)
}

// addPlainC adds complex constant k to c, at c's scale. On a leveled
// backend a constant that varies across the slots is encoded once (plain);
// one that does not — a complex-packed activation's shift or Horner
// coefficient — takes AddPlainC's exact path, which encodes nothing, as do
// all of them on the mocks.
func (x *exec) addPlainC(k int32, c hisa.Ciphertext) hisa.Ciphertext {
	con, slots := &x.p.Consts[k], x.b.Slots()
	if x.enc == nil || slotUniform(con.Re, slots) && slotUniform(con.Im, slots) {
		return x.b.AddPlainC(c, hisa.ExpandC(con.Re, con.Im, slots))
	}
	return x.b.AddPlain(c, x.plain(k, c))
}

// EncodedLevels is the level each constant's plaintext has once a replay on
// a leveled backend has encoded it (plain), -1 for one it never encodes: the
// constant's own level or, for a complex constant that varies across the n
// slots — whose table level the program keeps at -1 — the level of the first
// instruction adding it. A slot-uniform complex constant is added exactly.
func (p *Program) EncodedLevels(n int) []int {
	levels := make([]int, len(p.Consts))
	for k := range levels {
		levels[k] = p.Consts[k].Level
	}
	for _, in := range p.Instrs {
		if in.Op != OpAddPlainC || in.K < 0 || levels[in.K] >= 0 {
			continue
		}
		if con := &p.Consts[in.K]; !slotUniform(con.Re, n) || !slotUniform(con.Im, n) {
			levels[in.K] = int(in.Level)
		}
	}
	return levels
}

// slotUniform reports whether the runs rs hold one value in all n slots.
func slotUniform(rs []hisa.Run, n int) bool {
	return len(rs) == 0 || len(rs) == 1 && rs[0].Start == 0 && int(rs[0].Len) == n
}

// PeakLive is the most registers live at once in a serial run: written and
// still to be read, the output's included.
func (p *Program) PeakLive() int {
	p.prepare()
	uses := append([]int32(nil), p.uses...)
	for _, r := range p.Output().Regs {
		uses[r]++
	}
	live, peak := len(p.InRegs), len(p.InRegs)
	for i := range p.Instrs {
		for r := p.Instrs[i].Out; r < p.Instrs[i].Out+p.results(i); r++ {
			if uses[r] > 0 {
				live++
			}
		}
		peak = max(peak, live)
		for _, r := range p.operands(i) {
			if uses[r]--; uses[r] == 0 {
				live--
			}
		}
	}
	return peak
}
