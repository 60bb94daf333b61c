package htc_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"chet/internal/ckks"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// compile compiles m under one layout policy at a fixed ring degree.
func compile(t *testing.T, m *nn.Model, scheme core.Scheme, logN int, sc htc.Scales, policy htc.LayoutPolicy) *core.Compiled {
	t.Helper()
	comp, err := core.Compile(m.Circuit, core.Options{Scheme: scheme, SecurityBits: -1, MinLogN: logN, MaxLogN: logN,
		Scales: sc, Policies: []htc.LayoutPolicy{policy}})
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// requireReplaysAgree replays comp's program serially and on `workers`
// goroutines, both on one encryption of img: the two outputs must agree bit
// for bit. It returns the serial replay's output.
func requireReplaysAgree(t *testing.T, name string, comp *core.Compiled, b hisa.Backend, img *tensor.Tensor, workers int) *tensor.Tensor {
	t.Helper()
	in := comp.Encrypt(b, img)
	want := htc.DecryptTensor(b, comp.Execute(b, in, 1), 1)[0]
	requireBitIdentical(t, name, want, htc.DecryptTensor(b, comp.Execute(b, in, workers), 1)[0])
	return want
}

func requireBitIdentical(t *testing.T, name string, want, got *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: slot %d: %v != %v (not bit-identical)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestParallelExecuteDeterministicRef checks that an 8-worker replay of
// LeNet-5-small's program is bit-identical to a serial one on the reference
// backend, for all four layout policies: every instruction is a
// deterministic function of its operands.
func TestParallelExecuteDeterministicRef(t *testing.T) {
	m := nn.LeNet5Small()
	img := nn.SyntheticImage(m.InputShape, 7)
	for _, policy := range htc.AllPolicies {
		comp := compile(t, m, core.SchemeCKKS, 13, htc.DefaultScales(), policy)
		requireReplaysAgree(t, "ref/"+policy.String(), comp, hisa.NewRefBackend(1<<(comp.Best.LogN-1)), img, 8)
	}
}

// TestParallelExecuteDeterministicSim is the same check on the simulation
// backend, whose noise-estimate bookkeeping rides along with every op.
// NoNoise decryption keeps the comparison exact.
func TestParallelExecuteDeterministicSim(t *testing.T) {
	m := nn.LeNet5Small()
	img := nn.SyntheticImage(m.InputShape, 7)
	sc := htc.Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	for _, policy := range htc.AllPolicies {
		comp := compile(t, m, core.SchemeCKKS, 13, sc, policy)
		b := hisa.NewSimBackend(hisa.SimParams{LogN: 13, LogQ: 2400, Seed: 5, NoNoise: true})
		requireReplaysAgree(t, "sim/"+policy.String(), comp, b, img, 8)
	}
}

// rnsScales are one 40-bit chain prime per factor.
var rnsScales = htc.Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}

// rnsBackend builds the real lattice backend comp selected.
func rnsBackend(t *testing.T, comp *core.Compiled) *hisa.RNSBackend {
	t.Helper()
	b, err := core.BuildBackend(comp, ring.NewTestPRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	return b.(*hisa.RNSBackend)
}

// TestParallelExecuteDeterministicRNS replays LeNet-tiny's program on the
// real RNS-CKKS backend: all evaluator ops are deterministic and workers
// also fan every instruction's limbs, so even lattice execution is
// bit-identical between 1 and 4 workers. (TestOutputsPinned pins these
// outputs, which the kernels computed bit for bit when they still ran on
// RNS.)
func TestParallelExecuteDeterministicRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	m := nn.LeNetTiny()
	comp := compile(t, m, core.SchemeRNS, 11, rnsScales, htc.PolicyCHW)
	img := nn.SyntheticImage(m.InputShape, 7)
	got := requireReplaysAgree(t, "rns/CHW", comp, rnsBackend(t, comp), img, 4)

	// And the values are right, not merely consistent with each other.
	want := m.Circuit.Evaluate(img)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("rns output diverges from plaintext reference at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// levelChecker is an RNS backend that checks every plaintext it is handed
// sits exactly at the level of the ciphertext it meets.
type levelChecker struct {
	*hisa.RNSBackend
	t *testing.T
}

func (b levelChecker) check(op string, c hisa.Ciphertext, p hisa.Plaintext) {
	if pl, cl := p.(*ckks.Plaintext).Level(), b.LevelOf(c); pl != cl {
		b.t.Errorf("%s: plaintext at level %d met a ciphertext at level %d", op, pl, cl)
	}
}

func (b levelChecker) MulPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	b.check("mulplain", c, p)
	return b.RNSBackend.MulPlain(c, p)
}

func (b levelChecker) AddPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	b.check("addplain", c, p)
	return b.RNSBackend.AddPlain(c, p)
}

// TestConstantStoreLevels replays LeNet-tiny's program under both pure
// layouts on RNS, and complex-packed: every plaintext of its constant table
// is encoded once, at the level of the ciphertext it meets, so the table
// holds fewer rows than top-level plaintexts would. A complex constant that
// varies across the slots (a complex-packed bias) is one of them; one that
// does not (an activation's shift) is added exactly and never encoded.
func TestConstantStoreLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	m := nn.LeNetTiny()
	img := nn.SyntheticImage(m.InputShape, 3)
	for _, tc := range []struct {
		policy  htc.LayoutPolicy
		complex bool
	}{{htc.PolicyCHW, false}, {htc.PolicyHW, false}, {htc.PolicyCHW, true}} {
		batch := 1
		if tc.complex {
			batch = 2
		}
		comp, err := core.Compile(m.Circuit, core.Options{Scheme: core.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11,
			Scales: rnsScales, Policies: []htc.LayoutPolicy{tc.policy}, Batch: batch, Complex: tc.complex})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v complex %v", tc.policy, tc.complex)
		rns := rnsBackend(t, comp)
		b := levelChecker{RNSBackend: rns, t: t}
		meter := hisa.NewMeter(b, nil)
		for i := 0; i < 2; i++ {
			before := meter.Counts()[hisa.OpEncode]
			comp.Execute(meter, comp.Encrypt(b, img), 2)
			if encodes := meter.Counts()[hisa.OpEncode] - before; (i == 0) != (encodes > 0) {
				t.Fatalf("%s: execution %d encoded %d constants", name, i+1, encodes)
			}
		}
		n, topRows := int64(2*b.Slots()), int64(rns.Params().MaxLevel()+1)
		want, complexes := len(comp.Code.Consts), 0
		for _, k := range comp.Code.Consts {
			if k.Im == nil {
				continue
			}
			complexes++
			if uniform := func(rs []hisa.Run) bool {
				return len(rs) == 0 || len(rs) == 1 && rs[0].Start == 0 && int(rs[0].Len) == b.Slots()
			}; uniform(k.Re) && uniform(k.Im) {
				want--
			}
		}
		if tc.complex && (complexes == 0 || want == len(comp.Code.Consts)) {
			t.Fatalf("%s: %d complex constants, %d of them slot-uniform", name, complexes, len(comp.Code.Consts)-want)
		}
		count, bytes := comp.Code.Plaintexts(), comp.Code.Bytes()
		if count != want || bytes%(n*8) != 0 {
			t.Fatalf("%s: %d constants encoded in %d bytes after two executions, want %d of %d",
				name, count, bytes, want, len(comp.Code.Consts))
		}
		if rows := bytes / (n * 8); rows >= int64(count)*topRows {
			t.Fatalf("%s: %d plaintexts hold %d rows, no fewer than the %d of top-level plaintexts",
				name, count, rows, int64(count)*topRows)
		}
	}
}

// TestMockEncodesOncePerInstruction: a backend without leveled encoding
// encodes a constant per use, but a sum of rotations whose terms share a
// constant — a mask as the weight of a fold's terms — encodes it once. One
// replay of LeNet-tiny on the CKKS mock encodes each instruction's distinct
// constants once, fewer than its terms read.
func TestMockEncodesOncePerInstruction(t *testing.T) {
	m := nn.LeNetTiny()
	comp := compile(t, m, core.SchemeCKKS, 11, simScales, htc.PolicyHW)
	want, reads := 0, 0
	for _, in := range comp.Code.Instrs {
		switch in.Op {
		case htc.OpRotSum:
			distinct := map[int32]bool{}
			for _, terms := range comp.Code.Sums[in.K].Sums {
				for _, t := range terms {
					if t.K >= 0 {
						distinct[t.K] = true
						reads++
					}
				}
			}
			want += len(distinct)
		case htc.OpAddPlain, htc.OpAddPlainAt, htc.OpSubPlain, htc.OpMulPlain:
			want++
			reads++
		}
	}
	meter := hisa.NewMeter(backend(t, comp), nil)
	in := comp.Encrypt(meter, nn.SyntheticImage(m.InputShape, 4))
	before := meter.Counts()[hisa.OpEncode]
	comp.Execute(meter, in, 2)
	if got := meter.Counts()[hisa.OpEncode] - before; got != want || want >= reads {
		t.Fatalf("a replay encoded %d constants, want %d (its instructions' distinct ones; their terms read %d)", got, want, reads)
	}
}

// TestReplayEncodesFromRuns: a replay on a backend that encodes per use
// encodes each constant straight from its runs when every backend in the
// wrapper chain takes runs (hisa.AsRuns), and by Encode of the expanded
// constant when one does not. An Interposer forwards EncodeRuns whatever it
// wraps, so a Meter over a backend without runs must not ask for them. The
// outputs and the Meter's encodes agree, on Ref and on Sim.
func TestReplayEncodesFromRuns(t *testing.T) {
	m := nn.LeNetTiny()
	comp := compile(t, m, core.SchemeCKKS, 11, simScales, htc.PolicyHW)
	img := nn.SyntheticImage(m.InputShape, 4)
	type withoutRuns struct{ hisa.Backend }
	for name, fresh := range map[string]func() hisa.Backend{
		"sim": func() hisa.Backend { return backend(t, comp) },
		"ref": func() hisa.Backend { return hisa.NewRefBackend(1 << (comp.Best.LogN - 1)) },
	} {
		want := run(comp, fresh(), img)[0]
		var encodes []int
		for _, b := range []hisa.Backend{fresh(), withoutRuns{fresh()}} {
			meter := hisa.NewMeter(b, nil)
			if _, ok := hisa.AsRuns(meter); ok != (len(encodes) == 0) {
				t.Fatalf("%s: AsRuns = %v for the Meter over %T", name, ok, b)
			}
			requireBitIdentical(t, fmt.Sprintf("%s: Meter over %T", name, b), want, run(comp, meter, img)[0])
			encodes = append(encodes, meter.Counts()[hisa.OpEncode])
		}
		if encodes[0] != encodes[1] {
			t.Fatalf("%s: %d encodes from runs, %d by Encode", name, encodes[0], encodes[1])
		}
	}
}

// TestConstantStoreConcurrentExecutions runs two executions of one program
// at once on one backend, sharing its lazily encoded constants and the
// evaluator (run with -race): both must equal a serial execution after
// them, bit for bit, and every constant is encoded once.
func TestConstantStoreConcurrentExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	m := nn.LeNetTiny()
	comp := compile(t, m, core.SchemeRNS, 11, rnsScales, htc.PolicyCHW)
	b := rnsBackend(t, comp)
	in := comp.Encrypt(b, nn.SyntheticImage(m.InputShape, 5))
	outs := make([]*htc.CipherTensor, 2)
	var wg sync.WaitGroup
	wg.Add(len(outs))
	for i := range outs {
		go func(i int) {
			defer wg.Done()
			outs[i] = comp.Execute(b, in, 2)
		}(i)
	}
	wg.Wait()
	want := htc.DecryptTensor(b, comp.Execute(b, in, 1), 1)[0]
	for i, out := range outs {
		requireBitIdentical(t, "concurrent execution "+string(rune('A'+i)), want, htc.DecryptTensor(b, out, 1)[0])
	}
	if comp.Code.Plaintexts() != len(comp.Code.Consts) {
		t.Fatalf("%d plaintexts encoded for %d constants", comp.Code.Plaintexts(), len(comp.Code.Consts))
	}
}
