package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// TestNodeTableMatchesRuntime holds the compiler's per-node table to the
// runtime: summed over Compiled.Nodes, the rotations, plaintext
// multiplications, rescales and relinearizations the recording run counted
// equal what a parallel execution on the real RNS backend issues.
func TestNodeTableMatchesRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	cnn, img := testCNN()
	tiny, small := nn.LeNetTiny(), nn.LeNet5Small()
	for _, tc := range []struct {
		c    *circuit.Circuit
		img  *tensor.Tensor
		logN int
	}{
		{cnn, img, 11},
		{tiny.Circuit, nn.SyntheticImage(tiny.InputShape, 7), 12},
		{small.Circuit, nn.SyntheticImage(small.InputShape, 7), 11},
	} {
		comp, err := Compile(tc.c, Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: tc.logN, MaxLogN: tc.logN})
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name, err)
		}
		var table [4]int
		for _, n := range comp.Nodes {
			table[0] += n.Rotations
			table[1] += n.MulPlain
			table[2] += n.Rescale
			table[3] += n.Relin
		}

		b, err := BuildBackend(comp, ring.NewTestPRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		m := hisa.NewMeter(b, nil)
		enc := htc.EncryptTensor(m, comp.Plan(), comp.Options.Scales, tc.img)
		comp.Execute(m, enc, 4)
		got := m.Counts()
		runtime := [4]int{got.Rotations(), got[hisa.OpMulPlain], got[hisa.OpRescale], got[hisa.OpRelin]}

		t.Logf("%s: {rot, mulplain, rescale, relin} = %v", tc.c.Name, table)
		if table != runtime {
			t.Errorf("%s: node table {rot, mulplain, rescale, relin} = %v, runtime %v", tc.c.Name, table, runtime)
		}
		if table[0] == 0 || table[2] == 0 {
			t.Errorf("%s: node table %v counts no rotations or rescales", tc.c.Name, table)
		}
	}
}

// TestRNSExecutesTheProgram holds the runtime to the compiled program: on
// the real lattice backend, LeNet-tiny and LeNet-5-small, real and complex
// packed, run every instruction exactly once, each result at its planned
// level, and the Meter counts exactly the HISA instructions of every kind
// that the recording run issued. Encodes and encryptions are the session's,
// not the program's, and are not compared.
func TestRNSExecutesTheProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	for _, model := range []*nn.Model{nn.LeNetTiny(), nn.LeNet5Small()} {
		for _, complexPack := range []bool{false, true} {
			opts := Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 14}
			if complexPack {
				opts.Batch, opts.Complex = 2, true
			}
			comp, err := Compile(model.Circuit, opts)
			if err != nil {
				t.Fatalf("%s complex=%v: %v", model.Name, complexPack, err)
			}
			b, err := BuildBackend(comp, ring.NewTestPRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			lv, _ := hisa.AsLeveledEncode(b)
			m := hisa.NewMeter(b, nil)
			enc := comp.Encrypt(m, nn.SyntheticImage(model.InputShape, 7))
			before := m.Counts()
			runs := make([]int, len(comp.Code.Instrs))
			comp.Code.Execute(m, enc, 2, func(i int, outs []hisa.Ciphertext) {
				runs[i]++
				if got, want := lv.LevelOf(outs[0]), int(comp.Code.Instrs[i].Level); got != want {
					t.Errorf("%s complex=%v: instruction %d (%v) at level %d, planned %d",
						model.Name, complexPack, i, comp.Code.Instrs[i].Op, got, want)
				}
			})
			for i, n := range runs {
				if n != 1 {
					t.Fatalf("%s complex=%v: instruction %d ran %d times", model.Name, complexPack, i, n)
				}
			}
			after := m.Counts()
			for k := hisa.OpKind(0); k < hisa.NumOps; k++ {
				switch k {
				case hisa.OpEncode, hisa.OpEncrypt, hisa.OpDecrypt, hisa.OpDecode:
					continue
				}
				if got, want := after[k]-before[k], comp.Code.Counts[k]; got != want {
					t.Errorf("%s complex=%v: %d %v at run time, the program has %d", model.Name, complexPack, got, k, want)
				}
			}
		}
	}
}

// TestModDownsPerInference pins what summing rotations in the extended basis
// buys at secure parameters: a LeNet-tiny inference at 128-bit security
// (N = 2^14) divides its key-switch accumulators by the special modulus once
// per sum output instead of once per rotation — at most 16 ModDowns (14
// since Dense copies into its input's gaps) where rotating one amount at a
// time would take 86, two for each of its 43 rotations — while the Meter still counts every rotation the unfused
// sequence stands for. A division that rides in a rescale's output pass, a
// relinearization's or a sum's whose outputs the program rescales, is not
// one of them. The inference runs fewer forward NTTs than the 596 it ran
// before the sums took their rescales and folded in base 4.
func TestModDownsPerInference(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution at 128-bit parameters is slow; run without -short")
	}
	tiny := nn.LeNetTiny()
	comp, err := Compile(tiny.Circuit, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackend(comp, ring.NewTestPRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	rns := b.(*hisa.RNSBackend)
	m := hisa.NewMeter(b, nil)
	enc := htc.EncryptTensor(m, comp.Plan(), comp.Options.Scales, nn.SyntheticImage(tiny.InputShape, 7))
	before := rns.ModDowns()
	fwd0, inv0 := rns.NTTs()
	comp.Execute(m, enc, 2)
	got := rns.ModDowns() - before
	fwd1, inv1 := rns.NTTs()
	counts := m.Counts()
	unfused := int64(2 * counts.Rotations())
	t.Logf("N = 2^%d: %d ModDowns, %d one rotation at a time; %d forward and %d inverse NTTs", comp.Best.LogN, got, unfused, fwd1-fwd0, inv1-inv0)
	if got > 16 || got >= unfused {
		t.Fatalf("%d ModDowns per inference, want at most 16 and fewer than the unfused %d", got, unfused)
	}
	if fwd := fwd1 - fwd0; fwd >= 596 {
		t.Fatalf("%d forward NTTs per inference, want fewer than 596", fwd)
	}
}

// TestNTTsPerInference pins how many one-row transforms a LeNet-tiny
// inference runs on RNS-CKKS at N = 2^11, forward and inverse, counted on
// the backend's ring from encrypted input to encrypted output: the first
// inference, which encodes the program's constants at their levels, and a
// later one, which finds them encoded. The count is fixed by the
// instruction stream and the key-switch structure (digits, special primes,
// one ModDown per sum output), not by how a transform or a
// multiply-accumulate is computed, so a kernel rewrite must leave it alone;
// a change of the count is a change of what the runtime does.
func TestNTTsPerInference(t *testing.T) {
	tiny := nn.LeNetTiny()
	comp, err := Compile(tiny.Circuit, Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Best.LogN != 11 {
		t.Fatalf("compiled at N = 2^%d, want 2^11", comp.Best.LogN)
	}
	b, err := BuildBackend(comp, ring.NewTestPRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	rns := b.(*hisa.RNSBackend)
	enc := htc.EncryptTensor(b, comp.Plan(), comp.Options.Scales, nn.SyntheticImage(tiny.InputShape, 7))
	for i, want := range [][2]int64{{750, 296}, {394, 220}} {
		fwd0, inv0 := rns.NTTs()
		comp.Execute(b, enc, 2)
		fwd1, inv1 := rns.NTTs()
		fwd, inv := fwd1-fwd0, inv1-inv0
		t.Logf("N = 2^11, inference %d: %d forward and %d inverse NTTs", i+1, fwd, inv)
		if [2]int64{fwd, inv} != want {
			t.Fatalf("inference %d: %d forward and %d inverse NTTs, want %d and %d", i+1, fwd, inv, want[0], want[1])
		}
	}
}

// TestCompileRejectsBadScales: a fixed-point factor that is not finite and
// greater than 1 is an input error naming the field, not a chain sized for a
// circuit that decrypts to garbage or a panic deep inside the analysis.
func TestCompileRejectsBadScales(t *testing.T) {
	c, _ := testCNN()
	for _, pm := range []float64{0, -math.Exp2(30), math.NaN(), math.Inf(1)} {
		sc := htc.Scales{Pc: math.Exp2(40), Pw: math.Exp2(35), Pu: math.Exp2(35), Pm: pm}
		_, err := Compile(c, Options{Scheme: SchemeCKKS, Scales: sc})
		if err == nil || !strings.Contains(err.Error(), "Pm") {
			t.Errorf("Pm = %g: got error %v, want one naming Pm", pm, err)
		}
	}
}

// TestNodeCostsSumToEstimate: the node table and the layout estimate are one
// tally priced at one chain and α — the parameter pass's for the estimate,
// the recording run's split by node for the table — so the table sums to
// the estimate, the Figure 7 baseline's power-of-two rotations, batching,
// complex packing and bootstrapping included. For RNS the estimate is the
// chosen α's candidate, bit for bit.
func TestNodeCostsSumToEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles LeNet-5-small and NN-20; run without -short")
	}
	type compile struct {
		model *nn.Model
		opts  Options
	}
	var cases []compile
	for _, m := range []*nn.Model{nn.LeNetTiny(), nn.LeNet5Small()} {
		for _, scheme := range []Scheme{SchemeRNS, SchemeCKKS} {
			cases = append(cases,
				compile{m, Options{Scheme: scheme}},
				compile{m, Options{Scheme: scheme, PowerOfTwoRotationsOnly: true}},
				compile{m, Options{Scheme: scheme, Batch: 8}},
				compile{m, Options{Scheme: scheme, Complex: true}})
		}
	}
	cases = append(cases, compile{nn.NN20(), Options{Scheme: SchemeRNS, Bootstrap: &BootstrapOptions{Window: 4}}})
	for _, tc := range cases {
		name := fmt.Sprintf("%s %+v", tc.model.Name, tc.opts)
		comp, err := Compile(tc.model.Circuit, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		best := comp.Best
		sum := 0.0
		for _, n := range comp.Nodes {
			sum += n.Cost
		}
		if math.Abs(sum-best.EstimatedCost) > 1e-9*best.EstimatedCost {
			t.Errorf("%s: nodes sum to %.17g µs, estimate %.17g µs", name, sum, best.EstimatedCost)
		}
		if best.CostPerImage != best.EstimatedCost/float64(best.Batch) {
			t.Errorf("%s: %g µs per image, estimate %g over %d images", name, best.CostPerImage, best.EstimatedCost, best.Batch)
		}
		if tc.opts.Scheme == SchemeRNS {
			for _, c := range best.SpecialTrace {
				if c.Alpha == best.SpecialPrimes && c.Cost != best.EstimatedCost {
					t.Errorf("%s: α = %d candidate costs %.17g µs, estimate %.17g µs", name, c.Alpha, c.Cost, best.EstimatedCost)
				}
			}
		}
		if p := comp.BootPlan; p != nil {
			boots := 0.0
			for _, pl := range p.Placements {
				boots += pl.Cost
			}
			if len(p.Placements) == 0 || math.Abs(boots-p.EstCost) > 1e-9*p.EstCost {
				t.Errorf("%s: %d placements cost %g µs, plan %g µs", name, len(p.Placements), boots, p.EstCost)
			}
		}
	}
}
