package htc

import (
	"fmt"
	"math"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/nn"
	"chet/internal/tensor"
)

// denseCase is one geometry the packed Dense kernel must get right. The slot
// count is part of the case: it fixes the lane stride, hence the copy span's
// room and the R the kernel picks (WantR, the height of the output grid). The
// fields are exported for the replay tests (DenseCases), which compile each
// case.
type denseCase struct {
	Name    string
	Layout  Layout
	Apron   int
	Shape   [3]int // C, H, W of the input
	OutDims []int  // one Dense per entry, chained
	// Residual adds the first Dense's output to the last's: same size,
	// different grids.
	Residual bool
	Slots    int
	Batch    int // images, one per lane (two per lane when complex)
	Complex  bool
	WantR    []int
}

var denseCases = []denseCase{
	// 3x3 with ChanStride == H*RowStride: padding a row fold 3 -> 4 would
	// read the next channel's row 0.
	{Name: "3x3-chw", Layout: LayoutCHW, Shape: [3]int{2, 3, 3}, OutDims: []int{6}, Slots: 256, WantR: []int{6}},
	{Name: "5x5-hw-multi-ct", Layout: LayoutHW, Shape: [3]int{3, 5, 5}, OutDims: []int{4}, Slots: 256, WantR: []int{4}},
	{Name: "chw-ragged-last-group", Layout: LayoutCHW, Shape: [3]int{6, 2, 2}, OutDims: []int{3}, Slots: 16, WantR: []int{1}},
	{Name: "apron-offset", Layout: LayoutCHW, Apron: 1, Shape: [3]int{2, 3, 3}, OutDims: []int{8}, Slots: 256, WantR: []int{4}},
	{Name: "outdim-prime", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{7}, Slots: 256, WantR: []int{7}},
	{Name: "outdim-over-capacity", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{12}, Slots: 64, WantR: []int{4}},
	{Name: "outdim-one", Layout: LayoutCHW, Shape: [3]int{2, 2, 2}, OutDims: []int{1}, Slots: 64, WantR: []int{1}},
	{Name: "span-is-lane", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{5}, Slots: 16, WantR: []int{1}},
	{Name: "rows-must-fit-copy", Layout: LayoutHW, Shape: [3]int{1, 2, 2}, OutDims: []int{24}, Slots: 32, WantR: []int{8}},
	{Name: "batch-8", Layout: LayoutCHW, Shape: [3]int{2, 3, 3}, OutDims: []int{6}, Slots: 1024, Batch: 8, WantR: []int{3}},
	{Name: "complex-4", Layout: LayoutCHW, Shape: [3]int{2, 3, 3}, OutDims: []int{6}, Slots: 256, Batch: 4, Complex: true, WantR: []int{3}},
	{Name: "dense-dense", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{8, 3}, Slots: 256, WantR: []int{8, 1}},
	{Name: "dense-dense-batch-2", Layout: LayoutCHW, Apron: 1, Shape: [3]int{2, 2, 2}, OutDims: []int{6, 4}, Slots: 1024, Batch: 2, WantR: []int{6, 2}},
	{Name: "dense-dense-add", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{8, 8}, Residual: true, Slots: 256, WantR: []int{8, 2}},
	{Name: "dense-dense-add-complex-4", Layout: LayoutCHW, Apron: 1, Shape: [3]int{2, 2, 2}, OutDims: []int{6, 6}, Residual: true, Slots: 1024, Batch: 4, Complex: true, WantR: []int{6, 2}},
}

// CircuitAndImages builds Input -> Dense... for the case, with distinct
// images per lane so that any cross-lane leakage shows as an error. A case
// with an apron puts a shape-keeping convolution padded by it ahead of the
// first Dense, so that a compiled plan keeps the apron too.
func (dc denseCase) CircuitAndImages() (*circuit.Circuit, []*tensor.Tensor) {
	b := circuit.NewBuilder(dc.Name)
	x := b.Input(dc.Shape[0], dc.Shape[1], dc.Shape[2])
	if k := 2*dc.Apron + 1; dc.Apron > 0 {
		c := dc.Shape[0]
		x = b.Conv2D(x, randTensor([]int{c, c, k, k}, 0.3, 730), randTensor([]int{c}, 0.2, 731), 1, dc.Apron, "pad")
	}
	inSize := dc.Shape[0] * dc.Shape[1] * dc.Shape[2]
	var first *circuit.Node
	for i, out := range dc.OutDims {
		w := randTensor([]int{out, inSize}, 0.5, int64(700+i))
		bias := randTensor([]int{out}, 0.2, int64(710+i))
		x = b.Dense(x, w, bias, fmt.Sprintf("fc%d", i+1))
		inSize = out
		if first == nil {
			first = x
		}
	}
	if dc.Residual {
		x = b.Add(first, x, "add")
	}
	n := dc.Batch
	if n < 1 {
		n = 1
	}
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = randTensor(dc.Shape[:], 1, int64(720+i))
	}
	return b.Build(x), imgs
}

func (dc denseCase) plan() Plan {
	return Plan{Layout: dc.Layout, Apron: dc.Apron, Batch: dc.Batch, Complex: dc.Complex}
}

// Policy is the layout policy that keeps the case's layout throughout.
func (dc denseCase) Policy() LayoutPolicy {
	if dc.Layout == LayoutCHW {
		return PolicyCHW
	}
	return PolicyHW
}

// TestDensePackedParityRef runs every case's kernels on the reference
// backend: each lane's output against Circuit.Evaluate of that lane's image,
// and the R each layer picked. The replay tests check the same on Sim and
// RNS (TestDensePackedParitySim).
func TestDensePackedParityRef(t *testing.T) {
	sc := DefaultScales()
	for _, dc := range denseCases {
		c, imgs := dc.CircuitAndImages()
		b := newRef(dc.Slots)
		in := EncryptTensor(b, dc.plan(), sc, imgs...)

		var gotR []int
		serial := Execute(b, c, in, dc.Policy(), sc, ExecOptions{
			OnNode: func(n *circuit.Node, out *CipherTensor) {
				if n.Kind == circuit.OpDense {
					gotR = append(gotR, out.H)
				}
			},
		})
		if fmt.Sprint(gotR) != fmt.Sprint(dc.WantR) {
			t.Errorf("%s: layers packed R = %v neurons per plaintext, want %v", dc.Name, gotR, dc.WantR)
		}
		got := DecryptTensor(b, serial, len(imgs))
		for lane, img := range imgs {
			tensorsClose(t, fmt.Sprintf("%s lane %d", dc.Name, lane), got[lane], c.Evaluate(img), 1e-6)
		}
	}
}

// TestRegrid: elements keep their flatten order across a change of grid,
// ciphertext grouping and channel count, and the result concatenates with a
// tensor that was on the target grid all along.
func TestRegrid(t *testing.T) {
	b := newRef(64)
	sc := DefaultScales()
	src := randTensor([]int{6, 2, 2}, 1, 730)
	peer := randTensor([]int{3, 2, 4}, 1, 731)
	from := EncryptTensor(b, Plan{Layout: LayoutCHW, Apron: 1}, sc, src) // 4 channels per ciphertext, 2 ciphertexts
	like := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, peer)          // 8 per ciphertext
	got := regrid(b, from, like, sc, ExecOptions{})
	if !sameGrid(got, like) || got.C != 3 {
		t.Fatalf("regrid left a %dx%dx%d tensor off the target grid", got.C, got.H, got.W)
	}
	tensorsClose(t, "regrid", DecryptTensor(b, got, 1)[0], src.Reshape(3, 2, 4), 1e-9)
	cat := DecryptTensor(b, Concat(b, sc, ExecOptions{}, like, got), 1)[0]
	tensorsClose(t, "concat after regrid", cat, tensor.ConcatChannels(peer, src.Reshape(3, 2, 4)), 1e-9)
	assertPanics(t, "regrid onto a grid the elements do not fill", func() {
		odd := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, randTensor([]int{1, 1, 5}, 1, 732))
		regrid(b, from, odd, sc, ExecOptions{})
	})
}

// TestFoldStridedExact: the base-4 fold of n elements s slots apart is
// Σ_{j<n} rot_{j·s} at every slot — so element 0 receives exactly the n
// elements, whatever lies beyond them — in foldRotations(n) rotations, for
// n = 1…33 (every digit pattern up to three base-4 digits, and past 4^2
// and 2·4^2). With a weight, every slot of that sum is multiplied by it.
func TestFoldStridedExact(t *testing.T) {
	const slots, s = 256, 3
	vals := make([]float64, slots)
	weight := make([]float64, slots)
	for i := range vals {
		vals[i] = float64(i + 1) // slots past element n-1 hold data too
		weight[i] = float64(i%5) - 1.5
	}
	for n := 1; n <= 33; n++ {
		for _, weighted := range []bool{false, true} {
			m := hisa.NewMeter(hisa.NewRefBackend(slots), nil)
			c := m.Encrypt(m.Encode(vals, 1<<20))
			var w hisa.Plaintext
			if weighted {
				w = m.Encode(weight, 1<<10)
			}
			before := m.Counts().Rotations()
			got := m.Decode(m.Decrypt(foldStrided(m, c, n, s, w)))
			for k := range got {
				want := 0.0
				for j := 0; j < n; j++ {
					want += vals[(k+j*s)%slots]
				}
				if weighted {
					want *= weight[k]
				}
				if math.Abs(got[k]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("n=%d weighted=%v: slot %d = %g, want %g", n, weighted, k, got[k], want)
				}
			}
			if rot := m.Counts().Rotations() - before; rot != foldRotations(n) {
				t.Errorf("n=%d: %d rotations, foldRotations says %d", n, rot, foldRotations(n))
			}
		}
	}
}

// TestDenseRotationBudget meters the Dense layers the benchmark and the zoo
// spend their rotations in, inside the circuits that feed them. Each must
// issue exactly the rotations of the closed form the kernel minimised over R,
// and strictly fewer than a base-4 fold of the span plus a placement per
// neuron.
func TestDenseRotationBudget(t *testing.T) {
	wb := circuit.NewBuilder("128x512")
	wide := wb.Build(wb.Dense(wb.Input(8, 8, 8), randTensor([]int{128, 512}, 0.5, 800), nil, "fc"))
	// The cliff: a prime outDim whose one full column does not fit the lane
	// has no admissible divisor but 1, and pays a fold per neuron.
	pb := circuit.NewBuilder("13x16")
	prime := pb.Build(pb.Dense(pb.Input(1, 4, 4), randTensor([]int{13, 16}, 0.5, 801), nil, "fc"))
	cases := []struct {
		name   string
		c      *circuit.Circuit
		policy LayoutPolicy
		slots  int
		want   map[string]int // Dense node -> rotations
	}{
		{"lenet-tiny@2^14", circuit.Fold(nn.LeNetTiny().Circuit).Circuit, PolicyCHW, 1 << 13, map[string]int{"fc": 12}},
		{"lenet5-small@2^11", circuit.Fold(nn.LeNet5Small().Circuit).Circuit, PolicyHW, 1 << 10, map[string]int{"fc1": 119, "fc2": 79}},
		{"nn20@2^9", circuit.Fold(nn.NN20().Circuit).Circuit, PolicyCHW, 1 << 8, map[string]int{"fc1": 12, "fc2": 111, "fc3": 12, "fc20": 111, "out": 12}},
		{"128x512-hw@2^13", wide, PolicyHW, 1 << 12, map[string]int{"fc": 89}},
		{"13x16-prime-no-fit@2^7", prime, PolicyHW, 1 << 6, map[string]int{"fc": 90}},
	}
	for _, tc := range cases {
		m := hisa.NewMeter(newRef(tc.slots), nil)
		sc := DefaultScales()
		enc := EncryptTensor(m, PlanFor(tc.c, tc.policy), sc, tensor.New(tc.c.Input.OutShape...))
		outs := map[int]*CipherTensor{}
		before := 0
		Execute(m, tc.c, enc, tc.policy, sc, ExecOptions{OnNode: func(n *circuit.Node, out *CipherTensor) {
			outs[n.ID] = out
			got := m.Counts().Rotations() - before
			before += got
			if n.Kind != circuit.OpDense {
				return
			}
			in, outDim := outs[n.Inputs[0].ID], n.Weights.Shape[0]
			if closed := denseRotations(in, outDim, out.H); got != closed {
				t.Errorf("%s %s: %d rotations, closed form at R=%d says %d", tc.name, n.Name, got, out.H, closed)
			}
			if want, ok := tc.want[n.Name]; ok && got != want {
				t.Errorf("%s %s: %d rotations, want %d", tc.name, n.Name, got, want)
			}
			span := nextPow2(in.pos(min(in.C, in.CPerCT)-1, in.H-1, in.W-1) + 1)
			if perNeuron := outDim * (foldRotations(span) + 1); got >= perNeuron {
				t.Errorf("%s %s: %d rotations, not below the per-neuron kernel's %d", tc.name, n.Name, got, perNeuron)
			}
		}})
	}
}
