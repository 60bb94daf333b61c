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
		enc := htc.EncryptTensor(m, comp.Plan(), comp.Options.Scales, tc.img)
		comp.Execute(m, enc, htc.ExecOptions{Workers: 4})
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
		enc := htc.EncryptTensor(&rec, comp.Plan(), comp.Options.Scales, img)
		comp.Execute(&rec, enc, opts)
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
// (N = 2^14) divides its key-switch accumulators by the special modulus once
// per sum output instead of once per rotation — at most 40 ModDowns where
// rotating one amount at a time would take 84, two for each of its 42
// rotations — while the Meter still counts every rotation the unfused
// sequence stands for. A relinearization's division rides in its rescale's
// output pass and is not one of them. The inference runs fewer forward NTTs
// than the 1,056 it ran on 9 primes with one special prime.
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
	comp.Execute(m, enc, htc.ExecOptions{Workers: 2})
	got := rns.ModDowns() - before
	fwd1, inv1 := rns.NTTs()
	counts := m.Counts()
	unfused := int64(2 * counts.Rotations())
	t.Logf("N = 2^%d: %d ModDowns, %d one rotation at a time; %d forward and %d inverse NTTs", comp.Best.LogN, got, unfused, fwd1-fwd0, inv1-inv0)
	if got > 40 || got >= unfused {
		t.Fatalf("%d ModDowns per inference, want at most 40 and fewer than the unfused %d", got, unfused)
	}
	if fwd := fwd1 - fwd0; fwd >= 1056 {
		t.Fatalf("%d forward NTTs per inference, want fewer than 1056", fwd)
	}
}

// TestNTTsPerInference pins how many one-row transforms a LeNet-tiny
// inference runs on RNS-CKKS at N = 2^11, forward and inverse, counted on
// the backend's ring from encrypted input to encrypted output. The count is
// fixed by the instruction stream and the key-switch structure (digits,
// special primes, one ModDown per sum output), not by how a transform or a
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
	fwd0, inv0 := rns.NTTs()
	comp.Execute(b, enc, htc.ExecOptions{Workers: 2})
	fwd1, inv1 := rns.NTTs()
	fwd, inv := fwd1-fwd0, inv1-inv0
	t.Logf("N = 2^11: %d forward and %d inverse NTTs per inference", fwd, inv)
	if want := [2]int64{1177, 417}; [2]int64{fwd, inv} != want {
		t.Fatalf("%d forward and %d inverse NTTs per inference, want %d and %d", fwd, inv, want[0], want[1])
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
