package htc

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"chet/internal/circuit"
	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// denseCase is one geometry the packed Dense kernel must get right. The slot
// count is part of the case: it fixes the lane stride, hence the copy span's
// room and the R the kernel picks (wantR, the height of the output grid).
type denseCase struct {
	name    string
	layout  Layout
	apron   int
	shape   [3]int // C, H, W of the input
	outDims []int  // one Dense per entry, chained
	// residual adds the first Dense's output to the last's: same size,
	// different grids.
	residual bool
	slots    int
	batch    int // images, one per lane (two per lane when complex)
	complex  bool
	wantR    []int
}

var denseCases = []denseCase{
	// 3x3 with ChanStride == H*RowStride: padding a row fold 3 -> 4 would
	// read the next channel's row 0.
	{name: "3x3-chw", layout: LayoutCHW, shape: [3]int{2, 3, 3}, outDims: []int{6}, slots: 256, wantR: []int{6}},
	{name: "5x5-hw-multi-ct", layout: LayoutHW, shape: [3]int{3, 5, 5}, outDims: []int{4}, slots: 256, wantR: []int{4}},
	{name: "chw-ragged-last-group", layout: LayoutCHW, shape: [3]int{6, 2, 2}, outDims: []int{3}, slots: 16, wantR: []int{1}},
	{name: "apron-offset", layout: LayoutCHW, apron: 1, shape: [3]int{2, 3, 3}, outDims: []int{8}, slots: 256, wantR: []int{4}},
	{name: "outdim-prime", layout: LayoutHW, shape: [3]int{1, 4, 4}, outDims: []int{7}, slots: 256, wantR: []int{7}},
	{name: "outdim-over-capacity", layout: LayoutHW, shape: [3]int{1, 4, 4}, outDims: []int{12}, slots: 64, wantR: []int{4}},
	{name: "outdim-one", layout: LayoutCHW, shape: [3]int{2, 2, 2}, outDims: []int{1}, slots: 64, wantR: []int{1}},
	{name: "span-is-lane", layout: LayoutHW, shape: [3]int{1, 4, 4}, outDims: []int{5}, slots: 16, wantR: []int{1}},
	{name: "rows-must-fit-copy", layout: LayoutHW, shape: [3]int{1, 2, 2}, outDims: []int{24}, slots: 32, wantR: []int{8}},
	{name: "batch-8", layout: LayoutCHW, shape: [3]int{2, 3, 3}, outDims: []int{6}, slots: 1024, batch: 8, wantR: []int{3}},
	{name: "complex-4", layout: LayoutCHW, shape: [3]int{2, 3, 3}, outDims: []int{6}, slots: 256, batch: 4, complex: true, wantR: []int{3}},
	{name: "dense-dense", layout: LayoutHW, shape: [3]int{1, 4, 4}, outDims: []int{8, 3}, slots: 256, wantR: []int{8, 1}},
	{name: "dense-dense-batch-2", layout: LayoutCHW, apron: 1, shape: [3]int{2, 2, 2}, outDims: []int{6, 4}, slots: 1024, batch: 2, wantR: []int{6, 2}},
	{name: "dense-dense-add", layout: LayoutHW, shape: [3]int{1, 4, 4}, outDims: []int{8, 8}, residual: true, slots: 256, wantR: []int{8, 2}},
	{name: "dense-dense-add-complex-4", layout: LayoutCHW, apron: 1, shape: [3]int{2, 2, 2}, outDims: []int{6, 6}, residual: true, slots: 1024, batch: 4, complex: true, wantR: []int{6, 2}},
}

// circuitAndImages builds Input -> Dense... for the case, with distinct
// images per lane so that any cross-lane leakage shows as an error.
func (dc denseCase) circuitAndImages() (*circuit.Circuit, []*tensor.Tensor) {
	b := circuit.NewBuilder(dc.name)
	x := b.Input(dc.shape[0], dc.shape[1], dc.shape[2])
	inSize := dc.shape[0] * dc.shape[1] * dc.shape[2]
	var first *circuit.Node
	for i, out := range dc.outDims {
		w := randTensor([]int{out, inSize}, 0.5, int64(700+i))
		bias := randTensor([]int{out}, 0.2, int64(710+i))
		x = b.Dense(x, w, bias, fmt.Sprintf("fc%d", i+1))
		inSize = out
		if first == nil {
			first = x
		}
	}
	if dc.residual {
		x = b.Add(first, x, "add")
	}
	n := dc.batch
	if n < 1 {
		n = 1
	}
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = randTensor(dc.shape[:], 1, int64(720+i))
	}
	return b.Build(x), imgs
}

func (dc denseCase) plan() Plan {
	return Plan{Layout: dc.layout, Apron: dc.apron, Batch: dc.batch, Complex: dc.complex}
}

func (dc denseCase) policy() LayoutPolicy {
	if dc.layout == LayoutCHW {
		return PolicyCHW
	}
	return PolicyHW
}

// denseParity checks every case on one backend family: each lane's output
// against Circuit.Evaluate of that lane's image, the R each layer picked, and
// Workers 1 against Workers 4 bit for bit (except under simulated noise,
// which is drawn in op order).
func denseParity(t *testing.T, mk func(logN int) hisa.Backend, sc Scales, tol float64, deterministic bool) {
	t.Helper()
	for _, dc := range denseCases {
		c, imgs := dc.circuitAndImages()
		b := mk(bits.Len(uint(dc.slots)))
		if b.Slots() != dc.slots {
			t.Fatalf("%s: backend has %d slots, case wants %d", dc.name, b.Slots(), dc.slots)
		}
		in := EncryptTensor(b, dc.plan(), sc, imgs...)

		var gotR []int
		serial := Execute(b, c, in, dc.policy(), sc, ExecOptions{
			OnNode: func(n *circuit.Node, out *CipherTensor) {
				if n.Kind == circuit.OpDense {
					gotR = append(gotR, out.H)
				}
			},
		})
		if fmt.Sprint(gotR) != fmt.Sprint(dc.wantR) {
			t.Errorf("%s: layers packed R = %v neurons per plaintext, want %v", dc.name, gotR, dc.wantR)
		}
		parallel := Execute(b, c, in, dc.policy(), sc, ExecOptions{Workers: 4})

		got := DecryptTensor(b, serial, len(imgs))
		gotPar := DecryptTensor(b, parallel, len(imgs))
		for lane, img := range imgs {
			name := fmt.Sprintf("%s/%s lane %d", b.Name(), dc.name, lane)
			tensorsClose(t, name, got[lane], c.Evaluate(img), tol)
			if deterministic {
				requireBitIdentical(t, name, got[lane], gotPar[lane])
			} else {
				tensorsClose(t, name+" workers=4", gotPar[lane], got[lane], tol)
			}
		}
	}
}

func TestDensePackedParityRef(t *testing.T) {
	denseParity(t, func(logN int) hisa.Backend { return hisa.NewRefBackend(1 << uint(logN-1)) },
		DefaultScales(), 1e-6, true)
}

func TestDensePackedParitySim(t *testing.T) {
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	denseParity(t, func(logN int) hisa.Backend {
		return hisa.NewSimBackend(hisa.SimParams{LogN: logN, LogQ: 400, Seed: 11})
	}, sc, 1e-3, false)
}

func TestDensePackedParityRNS(t *testing.T) {
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	denseParity(t, func(logN int) hisa.Backend {
		params, err := ckks.NewParameters(ckks.ParametersLiteral{
			LogN: logN, LogQ: []int{50, 40, 40, 40, 40}, LogP: 50, LogScale: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(103)})
	}, sc, 1e-3, true)
}

// TestRegrid: elements keep their flatten order across a change of grid,
// ciphertext grouping and channel count, and the result concatenates with a
// tensor that was on the target grid all along.
func TestRegrid(t *testing.T) {
	b := hisa.NewRefBackend(64)
	sc := DefaultScales()
	src := randTensor([]int{6, 2, 2}, 1, 730)
	peer := randTensor([]int{3, 2, 4}, 1, 731)
	from := EncryptTensor(b, Plan{Layout: LayoutCHW, Apron: 1}, sc, src) // 4 channels per ciphertext, 2 ciphertexts
	like := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, peer)          // 8 per ciphertext
	for _, workers := range []int{1, 4} {
		got := regrid(b, from, like, sc, ExecOptions{Workers: workers})
		if !sameGrid(got, like) || got.C != 3 {
			t.Fatalf("regrid left a %dx%dx%d tensor off the target grid", got.C, got.H, got.W)
		}
		tensorsClose(t, "regrid", DecryptTensor(b, got, 1)[0], src.Reshape(3, 2, 4), 1e-9)
		cat := DecryptTensor(b, Concat(b, sc, ExecOptions{}, like, got), 1)[0]
		tensorsClose(t, "concat after regrid", cat, tensor.ConcatChannels(peer, src.Reshape(3, 2, 4)), 1e-9)
	}
	assertPanics(t, "regrid onto a grid the elements do not fill", func() {
		odd := EncryptTensor(b, Plan{Layout: LayoutCHW}, sc, randTensor([]int{1, 1, 5}, 1, 732))
		regrid(b, from, odd, sc, ExecOptions{})
	})
}

// TestFoldStridedExact: element 0 receives exactly the n elements, whatever
// lies beyond them, in foldRotations(n) rotations.
func TestFoldStridedExact(t *testing.T) {
	const slots, s = 64, 3
	for n := 1; n <= 17; n++ {
		vals := make([]float64, slots)
		want := 0.0
		for i := range vals {
			vals[i] = float64(i + 1) // slots past element n-1 hold data too
		}
		for i := 0; i < n; i++ {
			want += vals[2+i*s]
		}
		m := hisa.NewMeter(hisa.NewRefBackend(slots), nil)
		c := m.Encrypt(m.Encode(vals, 1<<20))
		before := m.Counts().Rotations()
		got := m.Decode(m.Decrypt(foldStrided(m, c, n, s)))[2]
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: element 0 = %g, want %g", n, got, want)
		}
		if rot := m.Counts().Rotations() - before; rot != foldRotations(n) {
			t.Errorf("n=%d: %d rotations, foldRotations says %d", n, rot, foldRotations(n))
		}
	}
}

// TestDenseRotationBudget meters the Dense layers the benchmark and the zoo
// spend their rotations in, inside the circuits that feed them. Each must
// issue exactly the rotations of the closed form the kernel minimised over R,
// and strictly fewer than a log-fold of the span plus a placement per neuron.
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
		{"lenet-tiny@2^15", nn.LeNetTiny().Circuit, PolicyCHW, 1 << 14, map[string]int{"fc": 9}},
		{"lenet5-small@2^11", nn.LeNet5Small().Circuit, PolicyHW, 1 << 10, map[string]int{"fc1": 87, "fc2": 59}},
		{"nn20@2^9", nn.NN20().Circuit, PolicyCHW, 1 << 8, map[string]int{"fc1": 8, "fc2": 79, "fc3": 8, "fc20": 79, "out": 8}},
		{"128x512-hw@2^13", wide, PolicyHW, 1 << 12, map[string]int{"fc": 61}},
		{"13x16-prime-no-fit@2^7", prime, PolicyHW, 1 << 6, map[string]int{"fc": 64}},
	}
	for _, tc := range cases {
		m := hisa.NewMeter(hisa.NewRefBackend(tc.slots), nil)
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
			if perNeuron := outDim * (bits.Len(uint(span-1)) + 1); got >= perNeuron {
				t.Errorf("%s %s: %d rotations, not below the per-neuron kernel's %d", tc.name, n.Name, got, perNeuron)
			}
		}})
	}
}
