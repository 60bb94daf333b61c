package htc

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/nn"
	"chet/internal/tensor"
)

// denseCase is one geometry the packed Dense kernel must get right. The slot
// count is part of the case: it fixes the lane stride, hence the room the
// copies have and the packing the kernel picks (WantGrid, each layer's
// output grid). The fields are exported for the replay tests (DenseCases),
// which compile each case.
type denseCase struct {
	Name    string
	Layout  Layout
	Apron   int
	Shape   [3]int // C, H, W of the input
	OutDims []int  // one Dense per entry, chained
	// Stride puts a 1x1 convolution of that stride ahead of the first
	// Dense, whose input then has gaps between its columns and rows.
	Stride int
	// Residual adds the first Dense's output to the last's: same size,
	// different grids.
	Residual bool
	// Net, when set, is the whole circuit (folded, circuit.Fold): Shape is
	// its input's and OutDims and Stride are unused.
	Net      *circuit.Circuit
	Slots    int
	Batch    int // images, one per lane (two per lane when complex)
	Complex  bool
	WantGrid []string // H x W / RowStride, ColStride of each Dense's output
}

var denseCases = []denseCase{
	// 3x3 with ChanStride == H*RowStride: padding a row fold 3 -> 4 would
	// read the next channel's row 0.
	{Name: "3x3-chw", Layout: LayoutCHW, Shape: [3]int{2, 3, 3}, OutDims: []int{6}, Slots: 256, WantGrid: []string{"6x1/32,1"}},
	{Name: "5x5-hw-multi-ct", Layout: LayoutHW, Shape: [3]int{3, 5, 5}, OutDims: []int{4}, Slots: 256, WantGrid: []string{"4x1/32,1"}},
	{Name: "chw-ragged-last-group", Layout: LayoutCHW, Shape: [3]int{6, 2, 2}, OutDims: []int{3}, Slots: 16, WantGrid: []string{"1x3/3,1"}},
	{Name: "apron-offset", Layout: LayoutCHW, Apron: 1, Shape: [3]int{2, 3, 3}, OutDims: []int{8}, Slots: 256, WantGrid: []string{"4x2/64,1"}},
	{Name: "outdim-prime", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{7}, Slots: 256, WantGrid: []string{"7x1/16,1"}},
	{Name: "outdim-over-capacity", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{12}, Slots: 64, WantGrid: []string{"4x3/16,1"}},
	{Name: "outdim-one", Layout: LayoutCHW, Shape: [3]int{2, 2, 2}, OutDims: []int{1}, Slots: 64, WantGrid: []string{"1x1/1,1"}},
	{Name: "span-is-lane", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{5}, Slots: 16, WantGrid: []string{"1x5/5,1"}},
	{Name: "rows-must-fit-copy", Layout: LayoutHW, Shape: [3]int{1, 2, 2}, OutDims: []int{24}, Slots: 32, WantGrid: []string{"8x3/4,1"}},
	{Name: "batch-8", Layout: LayoutCHW, Shape: [3]int{2, 3, 3}, OutDims: []int{6}, Slots: 1024, Batch: 8, WantGrid: []string{"3x2/32,1"}},
	{Name: "complex-4", Layout: LayoutCHW, Shape: [3]int{2, 3, 3}, OutDims: []int{6}, Slots: 256, Batch: 4, Complex: true, WantGrid: []string{"3x2/32,1"}},
	{Name: "dense-dense", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{8, 3}, Slots: 256, WantGrid: []string{"8x1/16,1", "3x1/1,1"}},
	{Name: "dense-dense-batch-2", Layout: LayoutCHW, Apron: 1, Shape: [3]int{2, 2, 2}, OutDims: []int{6, 4}, Slots: 1024, Batch: 2, WantGrid: []string{"6x1/32,1", "4x1/1,1"}},
	{Name: "dense-dense-add", Layout: LayoutHW, Shape: [3]int{1, 4, 4}, OutDims: []int{8, 8}, Residual: true, Slots: 256, WantGrid: []string{"8x1/16,1", "8x1/1,1"}},
	{Name: "dense-dense-add-complex-4", Layout: LayoutCHW, Apron: 1, Shape: [3]int{2, 2, 2}, OutDims: []int{6, 6}, Residual: true, Slots: 1024, Batch: 4, Complex: true, WantGrid: []string{"6x1/32,1", "6x1/1,1"}},
	// Stride-2 inputs: fc1 copies into the column gaps and past the span,
	// strided-hw's fc2 into the gaps between fc1's output rows.
	{Name: "strided-hw", Layout: LayoutHW, Shape: [3]int{2, 8, 8}, OutDims: []int{16, 10}, Stride: 2, Slots: 256, WantGrid: []string{"4x4/64,1", "10x1/4,1"}},
	{Name: "strided-chw", Layout: LayoutCHW, Shape: [3]int{3, 6, 6}, OutDims: []int{12}, Stride: 2, Slots: 512, WantGrid: []string{"3x4/128,1"}},
	// The fleet's batched program: LeNet-tiny at B = 8 in 128-slot lanes.
	{Name: "lenet-tiny-batch-8", Layout: LayoutHW, Apron: 1, Shape: [3]int{1, 8, 8}, Net: circuit.Fold(nn.LeNetTiny().Circuit).Circuit, Slots: 1024, Batch: 8, WantGrid: []string{"5x2/4,1"}},
}

// CircuitAndImages builds Input -> Dense... for the case, with distinct
// images per lane so that any cross-lane leakage shows as an error. A case
// with an apron puts a shape-keeping convolution padded by it ahead of the
// first Dense, so that a compiled plan keeps the apron too.
func (dc denseCase) CircuitAndImages() (*circuit.Circuit, []*tensor.Tensor) {
	n := dc.Batch
	if n < 1 {
		n = 1
	}
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = randTensor(dc.Shape[:], 1, int64(720+i))
	}
	if dc.Net != nil {
		return dc.Net, imgs
	}
	b := circuit.NewBuilder(dc.Name)
	x := b.Input(dc.Shape[0], dc.Shape[1], dc.Shape[2])
	c, h, w := dc.Shape[0], dc.Shape[1], dc.Shape[2]
	if k := 2*dc.Apron + 1; dc.Apron > 0 {
		x = b.Conv2D(x, randTensor([]int{c, c, k, k}, 0.3, 730), randTensor([]int{c}, 0.2, 731), 1, dc.Apron, "pad")
	}
	if dc.Stride > 1 {
		x = b.Conv2D(x, randTensor([]int{c, c, 1, 1}, 0.8, 732), nil, dc.Stride, 0, "stride")
		h, w = (h-1)/dc.Stride+1, (w-1)/dc.Stride+1
	}
	inSize := c * h * w
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
	return b.Build(x), imgs
}

// Grid is how the replay tests and WantGrid write a Dense's output grid.
func Grid(t *CipherTensor) string {
	return fmt.Sprintf("%dx%d/%d,%d", t.H, t.W, t.RowStride, t.ColStride)
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
// and the grid each layer's packing left. The replay tests check the same on
// Sim and RNS (TestDensePackedParitySim).
func TestDensePackedParityRef(t *testing.T) {
	sc := DefaultScales()
	for _, dc := range denseCases {
		c, imgs := dc.CircuitAndImages()
		b := newRef(dc.Slots)
		in := EncryptTensor(b, dc.plan(), sc, imgs...)

		var grids []string
		serial := Execute(b, c, in, dc.Policy(), sc, ExecOptions{
			OnNode: func(n *circuit.Node, out *CipherTensor) {
				if n.Kind == circuit.OpDense {
					grids = append(grids, Grid(out))
				}
			},
		})
		if fmt.Sprint(grids) != fmt.Sprint(dc.WantGrid) {
			t.Errorf("%s: the layers' output grids are %q, want %q", dc.Name, grids, dc.WantGrid)
		}
		got := DecryptTensor(b, serial, len(imgs))
		for lane, img := range imgs {
			tensorsClose(t, fmt.Sprintf("%s lane %d", dc.Name, lane), got[lane], c.Evaluate(img), 1e-6)
		}
	}
}

// TestDenseInputsClean: Dense copies its input into the slots the input's
// layout leaves free, which holds only if it reads the input clean. For
// every zoo model under every layout policy, cleanOutputs marks each Dense
// input clean, through the metadata-only nodes to the kernel that wrote it.
func TestDenseInputsClean(t *testing.T) {
	for _, m := range nn.All() {
		c := circuit.Fold(m.Circuit).Circuit
		for _, policy := range AllPolicies {
			clean := cleanOutputs(c, policy)
			for _, n := range c.Nodes {
				if n.Kind != circuit.OpDense {
					continue
				}
				for x := n.Inputs[0]; ; x = x.Inputs[0] {
					if !clean[x.ID] {
						t.Errorf("%s under %v: %s reads %s dirty", m.Name, policy, n.Name, x.Name)
					}
					if x.Kind != circuit.OpFlatten && x.Kind != circuit.OpPad2D {
						break
					}
				}
			}
		}
	}
}

// TestDenseCopiesChecked: Dense refuses copies that would overlap each
// other or leave their lane (checkCopies), whatever chose them.
func TestDenseCopiesChecked(t *testing.T) {
	b := newRef(16)
	in := EncryptTensor(b, Plan{Layout: LayoutHW}, DefaultScales(), randTensor([]int{1, 2, 2}, 1, 740)) // slots 0..3
	in.checkCopies([]int{0, 4, 8, 12})
	assertPanics(t, "overlapping copies", func() { in.checkCopies([]int{0, 2}) })
	assertPanics(t, "a copy past the lane", func() { in.checkCopies([]int{0, 13}) })
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

// sumCounter counts the sums of rotations that switch keys: the outputs of
// a RotSum with a rotated term, each of which takes a ModDown.
type sumCounter struct {
	*hisa.RefBackend
	n int
}

func (s *sumCounter) RotSum(srcs []hisa.Ciphertext, sums [][]hisa.Term, divide func(hisa.Ciphertext) *big.Int) []hisa.Ciphertext {
	for _, terms := range sums {
		for _, t := range terms {
			if t.Rot%s.Slots() != 0 {
				s.n++
				break
			}
		}
	}
	return s.RefBackend.RotSum(srcs, sums, divide)
}

// TestDenseRotationBudget meters the Dense layers the benchmark and the zoo
// spend their rotations in, inside the circuits that feed them. Each must
// issue exactly the rotations and the key-switching sums of the closed form
// the kernel priced its packing by (denseSums), and strictly fewer rotations
// than a base-4 fold of the span plus a placement per neuron.
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
		want   map[string][2]int // Dense node -> rotations, key-switching sums
	}{
		{"lenet-tiny@2^14", circuit.Fold(nn.LeNetTiny().Circuit).Circuit, PolicyCHW, 1 << 13, map[string][2]int{"fc": {10, 5}}},
		{"lenet5-small@2^11", circuit.Fold(nn.LeNet5Small().Circuit).Circuit, PolicyHW, 1 << 10, map[string][2]int{"fc1": {61, 21}, "fc2": {16, 4}}},
		{"nn20@2^9", circuit.Fold(nn.NN20().Circuit).Circuit, PolicyCHW, 1 << 8, map[string][2]int{"fc1": {12, 4}, "fc2": {12, 4}, "fc3": {12, 4}, "fc20": {12, 4}, "out": {15, 3}}},
		{"128x512-hw@2^13", wide, PolicyHW, 1 << 12, map[string][2]int{"fc": {89, 33}}},
		{"13x16-prime-no-fit@2^7", prime, PolicyHW, 1 << 6, map[string][2]int{"fc": {90, 27}}},
	}
	for _, tc := range cases {
		counter := &sumCounter{RefBackend: newRef(tc.slots)}
		m := hisa.NewMeter(counter, nil)
		sc := DefaultScales()
		enc := EncryptTensor(m, PlanFor(tc.c, tc.policy), sc, tensor.New(tc.c.Input.OutShape...))
		outs := map[int]*CipherTensor{}
		rotBefore, sumsBefore := 0, 0
		Execute(m, tc.c, enc, tc.policy, sc, ExecOptions{OnNode: func(n *circuit.Node, out *CipherTensor) {
			outs[n.ID] = out
			rot, sums := m.Counts().Rotations()-rotBefore, counter.n-sumsBefore
			rotBefore, sumsBefore = rotBefore+rot, sumsBefore+sums
			if n.Kind != circuit.OpDense {
				return
			}
			in, outDim := outs[n.Inputs[0].ID], n.Weights.Shape[0]
			closed := denseSums(in, densePack(in, outDim, tc.slots))
			if rot != closed.pairs || sums != closed.sums {
				t.Errorf("%s %s: %d rotations in %d key-switching sums, the closed form says %d in %d",
					tc.name, n.Name, rot, sums, closed.pairs, closed.sums)
			}
			if want, ok := tc.want[n.Name]; ok && [2]int{rot, sums} != want {
				t.Errorf("%s %s: %d rotations in %d key-switching sums, want %d in %d", tc.name, n.Name, rot, sums, want[0], want[1])
			}
			span := nextPow2(in.pos(min(in.C, in.CPerCT)-1, in.H-1, in.W-1) + 1)
			if perNeuron := outDim * (foldRotations(span) + 1); rot >= perNeuron {
				t.Errorf("%s %s: %d rotations, not below the per-neuron kernel's %d", tc.name, n.Name, rot, perNeuron)
			}
		}})
	}
}
