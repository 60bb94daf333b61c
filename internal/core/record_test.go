package core

import (
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
		enc := htc.EncryptTensor(m, tc.img, comp.Plan(), comp.Options.Scales)
		htc.Execute(m, comp.Circuit, enc, comp.Best.Policy, comp.Options.Scales, htc.ExecOptions{Workers: 4})
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

// TestAnalysisIssuesRuntimeStream holds the compiler's recording run to the
// runtime it plans for: the instructions the kernels issue against the
// recording analysis are, kind for kind and in order, the ones they issue
// against the real RNS backend (encodes and encryptions aside, which differ
// by how the input and constants reach the backend, not by the circuit).
func TestAnalysisIssuesRuntimeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	stream := func(b hisa.Backend, comp *Compiled, img *tensor.Tensor, opts htc.ExecOptions) []hisa.OpKind {
		var kinds []hisa.OpKind
		rec := hisa.NewInterposer(b, "stream", nil, func(op *hisa.Op) {
			if op.Kind != hisa.OpEncode && op.Kind != hisa.OpEncrypt {
				kinds = append(kinds, op.Kind)
			}
		})
		enc := htc.EncryptTensor(&rec, img, comp.Plan(), comp.Options.Scales)
		htc.Execute(&rec, comp.Circuit, enc, comp.Best.Policy, comp.Options.Scales, opts)
		return kinds
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
			img := nn.SyntheticImage(model.InputShape, 7)
			runtime, err := BuildBackend(comp, ring.NewTestPRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			got := stream(recordAnalysis(comp, nil).backend(), comp, img, htc.ExecOptions{})
			want := stream(runtime, comp, img, htc.ExecOptions{Workers: 1, Constants: htc.NewConstants()})
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("%s complex=%v: op %d is %v in the analysis, %v at run time", model.Name, complexPack, i, got[i], want[i])
				}
			}
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s complex=%v: analysis issues %d ops, runtime %d", model.Name, complexPack, len(got), len(want))
			}
		}
	}
}

// TestModDownsPerInference pins what summing rotations in the extended basis
// buys at secure parameters: a LeNet-tiny inference at 128-bit security
// (N = 2^15) divides its key-switch accumulators by the special modulus once
// per sum output instead of once per rotation — at most 44 ModDowns where
// rotating one amount at a time took 72, two for each of its 36 rotations —
// while the Meter still counts every rotation the unfused sequence stands
// for.
func TestModDownsPerInference(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution at N = 2^15 is slow; run without -short")
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
	enc := htc.EncryptTensor(m, nn.SyntheticImage(tiny.InputShape, 7), comp.Plan(), comp.Options.Scales)
	before := rns.ModDowns()
	htc.Execute(m, comp.Circuit, enc, comp.Best.Policy, comp.Options.Scales, htc.ExecOptions{Workers: 2})
	got := rns.ModDowns() - before
	counts := m.Counts()
	unfused := int64(2 * counts.Rotations())
	t.Logf("N = 2^%d: %d ModDowns, %d one rotation at a time", comp.Best.LogN, got, unfused)
	if got > 44 || got >= unfused {
		t.Fatalf("%d ModDowns per inference, want at most 44 and fewer than the unfused %d", got, unfused)
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
