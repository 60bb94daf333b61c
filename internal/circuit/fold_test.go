package circuit_test

import (
	"math"
	"math/rand"
	"testing"

	"chet/internal/circuit"
	"chet/internal/nn"
	"chet/internal/tensor"
)

func randTensor(shape []int, bound float64, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

// foldCases are circuits that exercise every rule of the rewrite: the zoo,
// a chain of activations that outgrows the factor bound, a linear
// activation, BatchNorms folded and kept, adds and concatenations whose
// operands arrive with different factors, and a BatchNorm beside the output.
func foldCases() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for _, m := range append(nn.All(), nn.LeNetTiny(), nn.NN20()) {
		cs = append(cs, m.Circuit)
	}

	b := circuit.NewBuilder("act-chain")
	x := b.Input(1, 4, 4)
	for i := 0; i < 4; i++ {
		x = b.Activation(x, 0.25, 1, "act")
	}
	x = b.Activation(x, 0, 2, "linear")
	x = b.AvgPool2D(x, 2, 2, "pool")
	cs = append(cs, b.Build(x))

	b = circuit.NewBuilder("bn-and-mismatch")
	x = b.Input(2, 6, 6)
	conv := b.Conv2D(x, randTensor([]int{3, 2, 3, 3}, 0.5, 1), randTensor([]int{3}, 0.2, 2), 1, 1, "conv")
	bn := b.BatchNorm(conv, randTensor([]int{3}, 1, 3), randTensor([]int{3}, 0.3, 4), "bn")
	bn = b.BatchNorm(bn, randTensor([]int{3}, 1, 5), randTensor([]int{3}, 0.3, 6), "bn-again")
	act := b.Activation(bn, 0.125, 0.75, "act")
	pool := b.AvgPool2D(act, 2, 2, "pool")                                                                         // factor 1/32
	skip := b.Conv2D(b.AvgPool2D(bn, 2, 2, "pool-skip"), randTensor([]int{3, 3, 1, 1}, 0.5, 7), nil, 1, 0, "skip") // factor 1
	sum := b.Add(pool, skip, "add")
	cat := b.Concat("cat", sum, pool, b.BatchNorm(pool, randTensor([]int{3}, 1, 8), randTensor([]int{3}, 0.3, 9), "bn-kept"))
	cs = append(cs, b.Build(b.PolyEval(cat, []float64{0.1, 0.5, 0.2}, "poly")))

	// The output is a convolution that a dangling BatchNorm also reads: the
	// BatchNorm must not fold into it.
	b = circuit.NewBuilder("bn-beside-output")
	conv = b.Conv2D(b.Input(1, 4, 4), randTensor([]int{2, 1, 3, 3}, 0.5, 10), nil, 1, 1, "conv")
	b.BatchNorm(conv, randTensor([]int{2}, 1, 11), randTensor([]int{2}, 0.3, 12), "bn")
	cs = append(cs, b.Build(conv))
	return cs
}

// TestFoldPreservesEvaluate: the rewritten circuit, times its output factor,
// computes what the source circuit does, and leaves no average pool and no
// activation that is not monic.
func TestFoldPreservesEvaluate(t *testing.T) {
	for _, c := range foldCases() {
		p := circuit.Fold(c)
		for _, n := range p.Circuit.Nodes {
			if n.Kind == circuit.OpAvgPool2D || (n.Kind == circuit.OpActivation && n.ActA != 1) {
				t.Fatalf("%s: %v node %q survived the rewrite", c.Name, n.Kind, n.Name)
			}
		}
		img := nn.SyntheticImage(c.Input.OutShape, 5)
		want := c.Evaluate(img)
		got := p.Circuit.Evaluate(img)
		if got.Size() != want.Size() {
			t.Fatalf("%s: %d outputs, want %d", c.Name, got.Size(), want.Size())
		}
		for i := range want.Data {
			if d := math.Abs(got.Data[i]*p.OutFactor - want.Data[i]); d > 1e-9*math.Max(1, math.Abs(want.Data[i])) {
				t.Fatalf("%s: output %d = %g, want %g", c.Name, i, got.Data[i]*p.OutFactor, want.Data[i])
			}
		}
	}
}

// TestFoldFactors pins what the rewrite does to LeNet-tiny: conv1 scales
// its output by √(1/8)/2 so that act1 and the pool compute true values
// (act1 leaves 4, the pool's 1/4 cancels it), conv2 scales by √(1/8) for
// act2, and fc absorbs nothing. LeNet-5-small ends in an activation, which
// the output absorbs for free: its fc2 is not scaled and the factor 1/8 is
// the client's.
func TestFoldFactors(t *testing.T) {
	p := circuit.Fold(nn.LeNetTiny().Circuit)
	r := math.Sqrt(8)
	want := map[string]circuit.Factor{
		"conv1": {In: 1, Out: 2 * r},
		"act1":  {In: 2 * r, Out: 4},
		"pool1": {In: 4, Out: 1},
		"conv2": {In: 1, Out: r},
		"act2":  {In: r, Out: 1},
		"fc":    {In: 1, Out: 1},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	for _, n := range p.Circuit.Nodes {
		if f, ok := want[n.Name]; ok && !(near(p.Factors[n.ID].In, f.In) && near(p.Factors[n.ID].Out, f.Out)) {
			t.Errorf("%s: factor %+v, want %+v", n.Name, p.Factors[n.ID], f)
		}
	}
	if p.OutFactor != 1 {
		t.Errorf("output factor %g, want 1", p.OutFactor)
	}
	if got := circuit.Fold(nn.LeNet5Small().Circuit).OutFactor; got != 0.125 {
		t.Errorf("LeNet-5-small ends in an activation: output factor %g, want 0.125", got)
	}
}
