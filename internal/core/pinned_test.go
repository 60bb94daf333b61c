package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// TestCompilePinned holds the compiler's decisions to their digests: how
// the kernels build their constants and how the analysis prices a sum of
// rotations are implementation choices, and no such choice may move a
// program, a fingerprint, a cost estimate or a layout choice by one bit. The
// compilations are the benchmark's compile-zoo pass (two LeNet-5 sizes and
// SqueezeNet-CIFAR for RNS-CKKS at 128 bits, the LeNet-5s for the CKKS
// mock, NN-20 with bootstrap placement) and LeNet-tiny at the default
// options. Each fingerprint is pinned apart from its digest: a change that
// moves only the estimates' last bits (a tally summed in another order)
// re-pins the digest and must keep the fingerprint.
func TestCompilePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark's zoo; run without -short")
	}
	for _, tc := range []struct {
		model *nn.Model
		opts  Options
		want  string
		fp    string
	}{
		{nn.LeNet5Small(), Options{Scheme: SchemeRNS}, "1a8111544a4cd763e531b2f72f0ceb06",
			"336e8381105acafdbd1a3fcd307986e83e2d84eb8b85a633f465ca5cabe1b855"},
		{nn.LeNet5Medium(), Options{Scheme: SchemeRNS}, "e0811d2892117edacb36db5bee7bee8f",
			"f509b2824603626e9ebb8353829d9b5e0f67ac041399a99c7571c7ecab9fc7bb"},
		{nn.SqueezeNetCIFAR(), Options{Scheme: SchemeRNS}, "92fe0ee80ee71e982b92c2aa08ffc4f6",
			"9490a1ac7202f9f490ba338e43a229853d3466420521b1f8a8c92db516d71890"},
		{nn.LeNet5Small(), Options{Scheme: SchemeCKKS}, "5fd49f7edf80058b6230ac8d39cd9eb6",
			"9a2276597e65a93128099cd7273a91112bf4a0d67fea705e8b17f6b11c346744"},
		{nn.LeNet5Medium(), Options{Scheme: SchemeCKKS}, "73146e26b498b6b0aa341fbe10fcb1f3",
			"d67a9ce504d15c229d57e0cb325df11a8d94824ec115411c423b13f4f8460b63"},
		{nn.NN20(), Options{Scheme: SchemeRNS, Bootstrap: &BootstrapOptions{Window: 4}}, "9eeef78fc5a3330004c74b4a8f39811e",
			"4b20602fdc9234685709a1d2e127f03e21b74589aeb61c8b20d33b24fd55f501"},
		{nn.LeNetTiny(), Options{Scheme: SchemeRNS}, "775d0538d9731c86768e6d29c5282eee",
			"bb91cb573bbe15f6a2fe6c42091e61eb9ad0a844db351a71551d43eac3f6105a"},
	} {
		comp, err := Compile(tc.model.Circuit, tc.opts)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.model.Name, tc.opts.Scheme, err)
		}
		if got := comp.FingerprintHex(); got != tc.fp {
			t.Errorf("%s %v (bootstrap %v): fingerprint %s, pinned %s", tc.model.Name, tc.opts.Scheme, tc.opts.Bootstrap != nil, got, tc.fp)
		}
		if got := compileDigest(comp); got != tc.want {
			t.Errorf("%s %v (bootstrap %v): digest %s, pinned %s", tc.model.Name, tc.opts.Scheme, tc.opts.Bootstrap != nil, got, tc.want)
		}
	}
}

// TestCompileParallelMatchesSerial holds the concurrent layout search to the
// serial one: each compilation of the benchmark's compile-zoo pass, one where
// a layout finds no secure ring degree (LeNet-tiny's HW-conv/CHW-rest at
// MaxLogN 14) and one where none does (LeNet-5-small at MaxLogN 14, the
// policies in reverse so the reported first failure is not HW's) is
// compiled under GOMAXPROCS 1 and 4. Both must give the same fingerprint,
// the same trace (policy order, ring degree, chain, α and every estimate
// bit for bit), the same special-prime candidates, the same winner and the
// same error text.
func TestCompileParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark's zoo; run without -short")
	}
	reversed := slices.Clone(htc.AllPolicies)
	slices.Reverse(reversed)
	for _, tc := range []struct {
		name  string
		model *nn.Model
		opts  Options
		// feasible is how many layouts compile; 0 means the compile fails.
		feasible int
	}{
		{"LeNet-5-small/rns", nn.LeNet5Small(), Options{Scheme: SchemeRNS}, 4},
		{"LeNet-5-medium/rns", nn.LeNet5Medium(), Options{Scheme: SchemeRNS}, 4},
		{"SqueezeNet-CIFAR/rns", nn.SqueezeNetCIFAR(), Options{Scheme: SchemeRNS}, 4},
		{"LeNet-5-small/ckks", nn.LeNet5Small(), Options{Scheme: SchemeCKKS}, 4},
		{"LeNet-5-medium/ckks", nn.LeNet5Medium(), Options{Scheme: SchemeCKKS}, 4},
		{"NN-20/boot", nn.NN20(), Options{Scheme: SchemeRNS, Bootstrap: &BootstrapOptions{Window: 4}}, 4},
		{"LeNet-tiny/one-infeasible", nn.LeNetTiny(), Options{Scheme: SchemeRNS, MaxLogN: 14}, 3},
		{"LeNet-5-small/none-feasible", nn.LeNet5Small(), Options{Scheme: SchemeRNS, MaxLogN: 14, Policies: reversed}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, serialErr := compileOnProcs(1, tc.model, tc.opts)
			par, parErr := compileOnProcs(4, tc.model, tc.opts)
			if fmt.Sprint(serialErr) != fmt.Sprint(parErr) {
				t.Fatalf("error %q in parallel, %q serially", parErr, serialErr)
			}
			if tc.feasible == 0 {
				if serialErr == nil {
					t.Fatal("compiled; the case wants every layout infeasible")
				}
				return
			}
			if serialErr != nil {
				t.Fatal(serialErr)
			}
			if len(serial.Trace) != tc.feasible {
				t.Fatalf("%d layouts compile, the case wants %d", len(serial.Trace), tc.feasible)
			}
			if got, want := par.FingerprintHex(), serial.FingerprintHex(); got != want {
				t.Errorf("fingerprint %s in parallel, %s serially", got, want)
			}
			if got, want := compileDigest(par), compileDigest(serial); got != want {
				t.Errorf("digest %s in parallel, %s serially", got, want)
			}
			if !reflect.DeepEqual(par.Trace, serial.Trace) {
				t.Errorf("trace in parallel:\n%+v\nserially:\n%+v", par.Trace, serial.Trace)
			}
			for i := range min(len(par.Trace), len(serial.Trace)) {
				if p, s := par.Trace[i].EstimatedCost, serial.Trace[i].EstimatedCost; math.Float64bits(p) != math.Float64bits(s) {
					t.Errorf("trace %d (%v): estimate %x in parallel, %x serially", i, serial.Trace[i].Policy, math.Float64bits(p), math.Float64bits(s))
				}
			}
			if !reflect.DeepEqual(par.Best, serial.Best) {
				t.Errorf("winner %v (logN %d) in parallel, %v (logN %d) serially", par.Best.Policy, par.Best.LogN, serial.Best.Policy, serial.Best.LogN)
			}
		})
	}
}

// compileOnProcs compiles m under runtime.GOMAXPROCS(procs).
func compileOnProcs(procs int, m *nn.Model, opts Options) (*Compiled, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Compile(m.Circuit, opts)
}

// compileDigest hashes what a compilation decided: the fingerprint (which
// covers the winner, its program and its key plan), every layout's search
// result — the losing layouts' estimates included, which a tally priced in
// another order would move and the fingerprint does not hash — the
// per-node table and the bootstrap plan's estimates.
func compileDigest(c *Compiled) string {
	h := sha256.New()
	fp := c.Fingerprint()
	h.Write(fp[:])
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	i64 := func(v int) { u64(uint64(int64(v))) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, r := range c.Trace {
		i64(int(r.Policy))
		i64(r.LogN)
		f64(r.LogQ)
		for _, b := range r.RNSChainBits {
			i64(b)
		}
		i64(r.SpecialBits)
		i64(r.SpecialPrimes)
		for _, s := range r.SpecialTrace {
			i64(s.Alpha)
			i64(s.Bits)
			f64(s.Cost)
		}
		for _, k := range r.Rotations {
			i64(k)
		}
		i64(r.RotationOps)
		f64(r.EstimatedCost)
		i64(r.Batch)
		f64(r.CostPerImage)
		i64(r.Bootstraps)
	}
	for _, n := range c.Nodes {
		i64(int(n.Kind))
		h.Write([]byte(n.Name))
		for _, v := range []int{n.Rotations, n.MulPlain, n.Rescale, n.Relin, n.Masks} {
			i64(v)
		}
		f64(n.Factor.In)
		f64(n.Factor.Out)
		f64(n.Cost)
	}
	if p := c.BootPlan; p != nil {
		for _, pl := range p.Placements {
			i64(pl.Index)
			i64(pl.Node)
			h.Write([]byte(pl.Name + "/" + pl.Op))
			f64(pl.Cost)
		}
		f64(p.EstCost)
		i64(p.MinHeadroom)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestCompileAllocations bounds the garbage one compilation at the default
// RNS options makes (runtime.MemStats.TotalAlloc): the analysis passes read
// scales and levels only, so a pass that fills a slot vector per constant or
// allocates a product per term of a sum of rotations shows here. When the
// kernels still filled a dense vector per weight, mask and bias and the
// analysis executed every sum term by term, SqueezeNet-CIFAR allocated
// 1,749 MiB per compile and LeNet-5-medium 766 MiB; with constants built as
// runs only by the recording run and sums priced without executing them,
// 169 and 42 MiB; with one output's terms standing for a sum's every output
// outside the recording run (htc's perOutput), 75 and 24 MiB. The bounds
// are kept where they were.
func TestCompileAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles SqueezeNet-CIFAR; run without -short")
	}
	for _, tc := range []struct {
		model  *nn.Model
		maxMiB float64
	}{
		{nn.SqueezeNetCIFAR(), 340},
		{nn.LeNet5Medium(), 85},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Compile(tc.model.Circuit, Options{Scheme: SchemeRNS}); err != nil {
			t.Fatalf("%s: %v", tc.model.Name, err)
		}
		runtime.ReadMemStats(&after)
		mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: %.0f MiB allocated by one compile", tc.model.Name, mib)
		if mib > tc.maxMiB {
			t.Errorf("%s: one compile allocated %.0f MiB, bound %.0f MiB", tc.model.Name, mib, tc.maxMiB)
		}
	}
}

// TestMockInferenceAllocations bounds the garbage one inference of
// LeNet-5-small on the CKKS mock makes (runtime.MemStats.TotalAlloc over
// encrypt, execute and decrypt), the work compile-zoo checks every CKKS
// program by. When the mock's sum of rotations ran the unfused sequence —
// a rotated copy per distinct rotation, a product per weighted term and a
// partial sum per added term — one inference allocated 312 MiB; computing
// each output in one accumulator brought it to 46 MiB, most of it the
// constants the mock encodes per use.
func TestMockInferenceAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles LeNet-5-small; run without -short")
	}
	const maxMiB = 60.0
	m := nn.LeNet5Small()
	comp, err := Compile(m.Circuit, Options{Scheme: SchemeCKKS})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackend(comp, ring.NewTestPRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	img := []*tensor.Tensor{nn.SyntheticImage(m.InputShape, 1)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	execute(comp, b, img, 2)
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("%s: %.0f MiB allocated by one mock inference", m.Name, mib)
	if mib > maxMiB {
		t.Errorf("%s: one mock inference allocated %.0f MiB, bound %.0f MiB", m.Name, mib, maxMiB)
	}
}
