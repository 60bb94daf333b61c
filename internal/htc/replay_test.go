package htc_test

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"chet/internal/circuit"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// The kernels run only in the compiler; these tests check on Sim and RNS what
// the kernel tests of package htc check on Ref, by replaying the program a
// circuit compiles to.

// simScales leave the mock's noise well below the tolerances.
var simScales = htc.Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}

// compiles holds one compilation per configuration, shared by the tests.
var compiles = map[string]*core.Compiled{}

// compileOnce compiles c at N = 2^logN without a security bound, once per
// key: the scheme (with its scales), the circuit's name and the options that
// vary.
func compileOnce(t *testing.T, c *circuit.Circuit, scheme core.Scheme, logN int, policy htc.LayoutPolicy, batch int, complexPacked bool) *core.Compiled {
	t.Helper()
	key := fmt.Sprint(c.Name, scheme, logN, policy, batch, complexPacked)
	if comp, ok := compiles[key]; ok {
		return comp
	}
	sc := simScales
	if scheme == core.SchemeRNS {
		sc = rnsScales
	}
	comp, err := core.Compile(c, core.Options{Scheme: scheme, SecurityBits: -1, MinLogN: logN, MaxLogN: logN,
		Scales: sc, Policies: []htc.LayoutPolicy{policy}, Batch: batch, Complex: complexPacked})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	compiles[key] = comp
	return comp
}

// backend builds the backend comp selected: the CKKS mock or the lattice.
func backend(t *testing.T, comp *core.Compiled) hisa.Backend {
	t.Helper()
	b, err := core.BuildBackend(comp, ring.NewTestPRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// run replays comp's program on b from an encryption of imgs and decrypts
// every image.
func run(comp *core.Compiled, b hisa.Backend, imgs ...*tensor.Tensor) []*tensor.Tensor {
	return comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, imgs...), 1), len(imgs))
}

func requireClose(t *testing.T, name string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: %d outputs, want %d", name, got.Size(), want.Size())
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
			t.Fatalf("%s: element %d = %g, want %g (err %g, tol %g)", name, i, got.Data[i], want.Data[i], d, tol)
		}
	}
}

// The CNN runs at N = 2^13 on the mock and at N = 2^11 on the lattice.
var cnnRing = map[core.Scheme]int{core.SchemeCKKS: 13, core.SchemeRNS: 11}

// cnnMatchesEvaluate replays the small CNN's CHW program and compares it
// with the plaintext circuit.
func cnnMatchesEvaluate(t *testing.T, scheme core.Scheme, tol float64) {
	c, img := htc.SmallCNN()
	comp := compileOnce(t, c, scheme, cnnRing[scheme], htc.PolicyCHW, 1, false)
	requireClose(t, scheme.String(), run(comp, backend(t, comp), img)[0], c.Evaluate(img), tol)
}

func TestExecuteOnSimBackend(t *testing.T) { cnnMatchesEvaluate(t, core.SchemeCKKS, 5e-2) }

func TestExecuteOnRealRNSCKKS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	cnnMatchesEvaluate(t, core.SchemeRNS, 1e-2)
}

// lanesParity replays the small CNN compiled for four images, packed real
// or complex, and requires every image's output to agree with the unbatched
// program's replay on it — elementwise within tol, and in the argmax. The
// complex program exercises every packing-aware site at once: biases reaching
// both slot components, the single-conjugation activation and its deferred
// relinearization.
func lanesParity(t *testing.T, scheme core.Scheme, complexPacked bool, tol float64) {
	const B = 4
	c, _ := htc.SmallCNN()
	imgs := make([]*tensor.Tensor, B)
	for i := range imgs {
		imgs[i] = randTensor([]int{1, 8, 8}, 1, int64(500+i))
	}
	batched := compileOnce(t, c, scheme, cnnRing[scheme], htc.PolicyCHW, B, complexPacked)
	if batched.Plan().Complex != complexPacked {
		t.Fatalf("the compiled plan lost the complex flag")
	}
	single := compileOnce(t, c, scheme, cnnRing[scheme], htc.PolicyCHW, 1, false)
	got := run(batched, backend(t, batched), imgs...)
	ub := backend(t, single)
	for i, img := range imgs {
		want := run(single, ub, img)[0]
		name := fmt.Sprintf("%v complex %v lane %d", scheme, complexPacked, i)
		requireClose(t, name, got[i], want, tol)
		if got[i].ArgMax() != want.ArgMax() {
			t.Fatalf("%s: argmax %d, unbatched %d", name, got[i].ArgMax(), want.ArgMax())
		}
	}
}

func TestBatchedParitySim(t *testing.T) { lanesParity(t, core.SchemeCKKS, false, 5e-2) }

func TestBatchedParityRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	lanesParity(t, core.SchemeRNS, false, 1e-2)
}

func TestComplexParitySim(t *testing.T) { lanesParity(t, core.SchemeCKKS, true, 5e-2) }

func TestComplexParityRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	lanesParity(t, core.SchemeRNS, true, 1e-2)
}

// denseParity compiles every packed-Dense case at its slot count and
// replays it: each lane's output against Circuit.Evaluate of that lane's
// image, and the R each layer picked, read from its span's output layout.
// The apron cases' circuits pad ahead of the Dense, so their programs run
// the offset layout too.
func denseParity(t *testing.T, scheme core.Scheme, tol float64) {
	for _, dc := range htc.DenseCases {
		c, imgs := dc.CircuitAndImages()
		comp := compileOnce(t, c, scheme, bits.Len(uint(dc.Slots)), dc.Policy(), dc.Batch, dc.Complex)
		if comp.Plan().Apron != dc.Apron {
			t.Fatalf("%s: compiled apron %d, want %d", dc.Name, comp.Plan().Apron, dc.Apron)
		}
		var grids []string
		for _, s := range comp.Code.Spans {
			switch comp.Code.Circuit.Nodes[s.Node].Kind {
			case circuit.OpDense:
				grids = append(grids, htc.Grid(&s.Out))
			case circuit.OpConv2D:
				if dc.Apron > 0 && s.Out.Offset == 0 {
					t.Fatalf("%s: the first Dense reads its input at offset 0, not inside the apron", dc.Name)
				}
			}
		}
		if fmt.Sprint(grids) != fmt.Sprint(dc.WantGrid) {
			t.Errorf("%s: the layers' output grids are %q, want %q", dc.Name, grids, dc.WantGrid)
		}
		got := run(comp, backend(t, comp), imgs...)
		for lane, img := range imgs {
			requireClose(t, fmt.Sprintf("%v/%s lane %d", scheme, dc.Name, lane), got[lane], c.Evaluate(img), tol)
		}
	}
}

func TestDensePackedParitySim(t *testing.T) { denseParity(t, core.SchemeCKKS, 1e-3) }

func TestDensePackedParityRNS(t *testing.T) { denseParity(t, core.SchemeRNS, 1e-3) }

// noSumShim runs every sum of rotations as its unfused sequence over the
// wrapped backend: one rotation, product and addition at a time, then each
// divided output's Rescale.
type noSumShim struct{ hisa.Backend }

func (s noSumShim) RotSum(srcs []hisa.Ciphertext, sums [][]hisa.Term, divide func(hisa.Ciphertext) *big.Int) []hisa.Ciphertext {
	outs := hisa.RotSumUnfused(s.Backend, srcs, sums)
	for o, c := range outs {
		if divide == nil {
			break
		}
		if d := divide(c); d.Cmp(big.NewInt(1)) != 0 {
			outs[o] = s.Backend.Rescale(c, d)
		}
	}
	return outs
}

func randTensor(shape []int, bound float64, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

// TestKernelsHoistedParityRNS replays the programs of the rotation-heavy
// kernels on the real RNS backend twice — once directly (sums kept in the
// extended basis, one ModDown per output, rescales inside it) and once
// behind noSumShim, on one encryption — and requires the decrypted outputs
// to agree within the rounding bound of the fused sums (ckks
// TestRotSumMatchesUnfused): (1 + Σ|w|)·N(N+1)/Δ per sum, an error entering
// a later sum growing by that sum's Σ|w|. The convolution's taps (Σ|w| over
// every tap and channel of the filter) feed, under CHW, a two-channel fold
// (doubling their error, plus 1 + 2 of its own) and the placement sum
// (1 + 3). The pool's window sum is weighted by its mask (1 + 4). The global
// pool folds 3 columns (1 + 3), whose error its masked fold of 3 rows
// carries at 3·1/9, plus 1 + 3/9 of its own: 8/3. Each kernel has a circuit
// of its own, so that its outputs differ by its own sums' rounding only;
// what the bound pins is that fusion is an execution-cost optimization, not
// a change of result.
func TestKernelsHoistedParityRNS(t *testing.T) {
	filters := randTensor([]int{3, 2, 3, 3}, 0.5, 12)
	sumW := 0.0
	for _, w := range filters.Data {
		sumW += math.Abs(w)
	}
	cb := circuit.NewBuilder("conv")
	conv := cb.Build(cb.Conv2D(cb.Input(2, 7, 7), filters, randTensor([]int{3}, 0.2, 13), 1, 1, "conv"))
	pb := circuit.NewBuilder("pool")
	pool := pb.Build(pb.AvgPool2D(pb.Input(3, 7, 7), 2, 2, "pool"))
	// 3x3 spatial dims are non-powers-of-two: each of the global pool's
	// folds is one sum of two rotations.
	gb := circuit.NewBuilder("gap")
	gap := gb.Build(gb.GlobalAvgPool2D(gb.Input(3, 3, 3), "gap"))
	cases := []struct {
		c     *circuit.Circuit
		img   *tensor.Tensor
		terms float64 // the sums' 1 + Σ|w|, composed
	}{
		{conv, randTensor([]int{2, 7, 7}, 1, 11), 2*(1+sumW) + 3 + 4},
		{pool, randTensor([]int{3, 7, 7}, 1, 15), 5},
		{gap, randTensor([]int{3, 3, 3}, 1, 14), 8.0 / 3},
	}

	for _, policy := range []htc.LayoutPolicy{htc.PolicyHW, htc.PolicyCHW} {
		for _, tc := range cases {
			comp := compileOnce(t, tc.c, core.SchemeRNS, 11, policy, 1, false)
			b := backend(t, comp)
			n := float64(b.Slots() * 2)
			in := comp.Encrypt(b, tc.img)
			name := policy.String() + "/" + tc.c.Name
			got := htc.DecryptTensor(b, comp.Execute(b, in, 1), 1)[0]
			want := htc.DecryptTensor(b, comp.Execute(noSumShim{b}, in, 1), 1)[0]
			requireClose(t, name, got, want, tc.terms*n*(n+1)/rnsScales.Pc)
		}
	}
}
