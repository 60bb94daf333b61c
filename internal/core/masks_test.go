package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// maskScales give masks a factor no other constant has, so a plaintext
// product at Pm is a mask product.
var maskScales = htc.Scales{Pc: math.Exp2(40), Pw: math.Exp2(35), Pu: math.Exp2(35), Pm: math.Exp2(33)}

// TestLeNetTinySecureOnHalfRing: with the activation's factor folded forward,
// masks only where a reader looks and prime-aligned scales, LeNet-tiny at the
// default 128-bit options fits N = 2^14 with an 8-prime chain (N = 2^15 and
// 12 primes when every layer spent two levels, 9 primes at 2^40/2^35
// scales), and the slack left above it holds α = 2 special primes: four
// key-switch digits, log2(QP) within the 438-bit budget, and P at least 2^8
// times the largest digit.
func TestLeNetTinySecureOnHalfRing(t *testing.T) {
	comp, err := Compile(nn.LeNetTiny().Circuit, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Options.SecurityBits != 128 || comp.Best.LogN != 14 || len(comp.Best.RNSChainBits) != 8 {
		t.Fatalf("compiled at %d bits to N = 2^%d with %d primes, want 128 bits, 2^14 and 8",
			comp.Options.SecurityBits, comp.Best.LogN, len(comp.Best.RNSChainBits))
	}
	params, err := RNSParameters(comp)
	if err != nil {
		t.Fatal(err)
	}
	if params.Alpha() != 2 || comp.Best.KeySwitchDigits() != 4 || params.LogQP() > float64(MaxLogQ(14, 128)) {
		t.Fatalf("α = %d with %d digits and log2(QP) = %.1f, want α = 2, 4 digits and at most %d",
			params.Alpha(), comp.Best.KeySwitchDigits(), params.LogQP(), MaxLogQ(14, 128))
	}
	bigP := big.NewInt(1)
	for _, p := range params.SpecialPrimes() {
		bigP.Mul(bigP, new(big.Int).SetUint64(p))
	}
	chain := params.QChain()
	for lo := 0; lo < len(chain); lo += 2 {
		digit := new(big.Int).Lsh(big.NewInt(1), 8)
		for _, q := range chain[lo:min(lo+2, len(chain))] {
			digit.Mul(digit, new(big.Int).SetUint64(q))
		}
		if bigP.Cmp(digit) < 0 {
			t.Errorf("P (%d bits) is below 2^8 times the digit at chain row %d", bigP.BitLen(), lo)
		}
	}
}

// TestZooMatchesEvaluateOnRef runs every zoo network under every layout
// policy on the plaintext reference backend, as compiled: the decrypted
// prediction matches Circuit.Evaluate on the source circuit, the output
// tensor's invalid slots are zero, and the mask products each node issues at
// run time are the ones Compiled.Nodes reports.
func TestZooMatchesEvaluateOnRef(t *testing.T) {
	models := []*nn.Model{nn.LeNetTiny(), nn.LeNet5Small(), nn.Industrial()}
	if !testing.Short() {
		models = append(models, nn.LeNet5Medium(), nn.LeNet5Large(), nn.SqueezeNetCIFAR())
	}
	for _, m := range models {
		img := nn.SyntheticImage(m.InputShape, 11)
		want := m.Circuit.Evaluate(img)
		for _, policy := range htc.AllPolicies {
			name := fmt.Sprintf("%s/%v", m.Name, policy)
			comp, err := Compile(m.Circuit, Options{
				Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 10, Scales: maskScales,
				Policies: []htc.LayoutPolicy{policy},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref := hisa.NewRefBackend(1 << uint(comp.Best.LogN-1))
			var masks []int // per node after the input, in execution order
			cur := 0
			b := hisa.NewInterposer(ref, "masks", nil, func(op *hisa.Op) {
				if op.Kind == hisa.OpMulPlain && op.Out != nil && ref.Scale(op.Out) == ref.Scale(op.In)*maskScales.Pm {
					cur++
				}
			})
			out := comp.Execute(&b, comp.Encrypt(&b, img), htc.ExecOptions{OnNode: func(n *circuit.Node, _ *htc.CipherTensor) {
				if n.Kind != circuit.OpInput {
					masks = append(masks, cur)
				}
				cur = 0
			}})
			if len(masks) != len(comp.Nodes) {
				t.Fatalf("%s: %d nodes ran, Compiled.Nodes has %d", name, len(masks), len(comp.Nodes))
			}
			for i, n := range comp.Nodes {
				if masks[i] != n.Masks {
					t.Errorf("%s %s: %d mask products at run time, Compiled.Nodes says %d", name, n.Name, masks[i], n.Masks)
				}
			}
			got := comp.Decrypt(ref, out, 1)[0]
			for i := range want.Data {
				if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-9*math.Max(1, math.Abs(want.Data[i])) {
					t.Fatalf("%s: output %d = %g, want %g", name, i, got.Data[i], want.Data[i])
				}
			}
			requireInvalidSlotsZero(t, name, ref, out)
		}
	}
}

// requireInvalidSlotsZero fails unless every slot of ct outside its valid
// positions, in every lane, is zero.
func requireInvalidSlotsZero(t *testing.T, name string, b hisa.Backend, ct *htc.CipherTensor) {
	t.Helper()
	for g, c := range ct.CTs {
		raw := b.Decode(b.Decrypt(c))
		valid := make([]bool, len(raw))
		for ci := 0; ci < ct.CPerCT && g*ct.CPerCT+ci < ct.C; ci++ {
			for y := 0; y < ct.H; y++ {
				for x := 0; x < ct.W; x++ {
					for l := 0; l < ct.Lanes(); l++ {
						valid[l*ct.BatchStride+ct.Offset+ci*ct.ChanStride+y*ct.RowStride+x*ct.ColStride] = true
					}
				}
			}
		}
		for s, v := range raw {
			if !valid[s] && v != 0 {
				t.Fatalf("%s: output ciphertext %d slot %d holds %g", name, g, s, v)
			}
		}
	}
}

// TestLeNetTinyBatchedComplexRNS runs LeNet-tiny as compiled, batched with
// real and with complex packing, on the real lattice backend: every lane
// matches Circuit.Evaluate.
func TestLeNetTinyBatchedComplexRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	m := nn.LeNetTiny()
	imgs := make([]*tensor.Tensor, 4)
	for i := range imgs {
		imgs[i] = nn.SyntheticImage(m.InputShape, uint64(40+i))
	}
	for _, complexPack := range []bool{false, true} {
		comp, err := Compile(m.Circuit, Options{
			Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 12, Batch: 4, Complex: complexPack,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildBackend(comp, ring.NewTestPRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		outs := comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, imgs...), htc.ExecOptions{Workers: 2}), len(imgs))
		for i, img := range imgs {
			want := m.Circuit.Evaluate(img)
			for j := range want.Data {
				if d := math.Abs(outs[i].Data[j] - want.Data[j]); d > 1e-4 {
					t.Fatalf("complex %v image %d output %d: got %g want %g", complexPack, i, j, outs[i].Data[j], want.Data[j])
				}
			}
		}
	}
}

// bnCircuit is a small network with three BatchNorms: one after a
// convolution that nothing else reads (it folds into the convolution), one
// after a pool, and one after a convolution a residual add also reads (both
// keep the BatchNorm kernel, absorbing the factor that reaches them). Its
// second residual add meets an activation's output, which carries a factor,
// and a sum that carries none: the rewrite aligns them with a degree-1
// polynomial.
func bnCircuit() *circuit.Circuit {
	b := circuit.NewBuilder("bn-net")
	x := b.Input(2, 8, 8)
	x = b.Conv2D(x, randTensor([]int{3, 2, 3, 3}, 0.4, 40), randTensor([]int{3}, 0.2, 41), 1, 1, "conv1")
	x = b.BatchNorm(x, randTensor([]int{3}, 1, 42), randTensor([]int{3}, 0.3, 43), "bn1")
	x = b.Activation(x, 0.125, 0.75, "act1")
	x = b.AvgPool2D(x, 2, 2, "pool1")
	x = b.BatchNorm(x, randTensor([]int{3}, 1, 44), randTensor([]int{3}, 0.3, 45), "bn2")
	y := b.Conv2D(x, randTensor([]int{3, 3, 3, 3}, 0.4, 46), nil, 1, 1, "conv2")
	z := b.BatchNorm(y, randTensor([]int{3}, 1, 47), randTensor([]int{3}, 0.3, 48), "bn3")
	x = b.Add(y, z, "res")
	x = b.Add(b.Activation(x, 0.125, 0.75, "act2"), x, "res2")
	x = b.Flatten(x, "flat")
	x = b.Dense(x, randTensor([]int{5, 48}, 0.3, 49), randTensor([]int{5}, 0.2, 50), "fc")
	return b.Build(x)
}

// TestBatchNormFoldsIntoConv: the rewrite folds a BatchNorm into the
// convolution that alone produces it and keeps the kernel for the others,
// and the network computes Circuit.Evaluate's values on Ref, Sim and RNS.
func TestBatchNormFoldsIntoConv(t *testing.T) {
	c := bnCircuit()
	img := randTensor([]int{2, 8, 8}, 1, 51)
	want := c.Evaluate(img)
	kept := map[string]bool{}
	for _, n := range circuit.Fold(c).Circuit.Nodes {
		if n.Kind == circuit.OpBatchNorm || n.Kind == circuit.OpPolyEval {
			kept[n.Name] = true
		}
		if n.Kind == circuit.OpConv2D && n.Name == "conv1" {
			t.Fatal("bn1 was not folded into conv1")
		}
	}
	if kept["bn1"] || !kept["bn2"] || !kept["bn3"] || !kept["res2/align0"] {
		t.Fatalf("kept: %v, want BatchNorms bn2 and bn3 and the alignment res2/align0", kept)
	}
	for _, tc := range []struct {
		name string
		opts Options
		tol  float64
	}{
		{"ref", Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 10}, 1e-9},
		{"sim", Options{Scheme: SchemeCKKS}, 1e-3},
		{"rns", Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 12}, 1e-3},
	} {
		comp, err := Compile(c, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var b hisa.Backend = hisa.NewRefBackend(1 << uint(comp.Best.LogN-1))
		if tc.name != "ref" {
			if b, err = BuildBackend(comp, ring.NewTestPRNG(9)); err != nil {
				t.Fatal(err)
			}
		}
		got := comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, img), htc.ExecOptions{}), 1)[0]
		for i := range want.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > tc.tol {
				t.Fatalf("%s: output %d = %g, want %g", tc.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestCHWHoldsNoMoreConstantsThanHW: at the lenet5-small benchmark options
// a CHW compilation of LeNet-5-small stores no more encoded constants than
// an HW one. Its convolutions read one channel per ciphertext, so they take
// the HW path's scalar taps under either layout instead of holding a weight
// plaintext per tap and output channel.
func TestCHWHoldsNoMoreConstantsThanHW(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	m := nn.LeNet5Small()
	img := nn.SyntheticImage(m.InputShape, 3)
	var plaintexts [2]int
	var bytes [2]int64
	for i, policy := range []htc.LayoutPolicy{htc.PolicyHW, htc.PolicyCHW} {
		comp, err := Compile(m.Circuit, Options{
			Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13, Policies: []htc.LayoutPolicy{policy},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildBackend(comp, ring.NewTestPRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		store := htc.NewConstants()
		comp.Execute(b, comp.Encrypt(b, img), htc.ExecOptions{Workers: 2, Constants: store})
		plaintexts[i], bytes[i] = store.Plaintexts(), store.Bytes()
	}
	t.Logf("HW %d plaintexts (%.1f MiB), CHW %d (%.1f MiB)",
		plaintexts[0], float64(bytes[0])/(1<<20), plaintexts[1], float64(bytes[1])/(1<<20))
	if plaintexts[1] > plaintexts[0] || bytes[1] > bytes[0] {
		t.Fatalf("CHW holds %d plaintexts in %d bytes, more than HW's %d in %d", plaintexts[1], bytes[1], plaintexts[0], bytes[0])
	}
}
