package serve

import (
	"math"
	"sync"
	"testing"

	"chet"
	"chet/internal/circuit"
	"chet/internal/core"
	"chet/internal/tensor"
)

var (
	batchCompileOnce sync.Once
	batchCompiled    *core.Compiled
	batchCompileErr  error
)

// testBatchCompiled compiles the same tiny CNN as testCompiled but with a
// batch capacity of 8, shared by every batching test in this package.
func testBatchCompiled(t *testing.T) *core.Compiled {
	t.Helper()
	batchCompileOnce.Do(func() {
		b := circuit.NewBuilder("serve-test-cnn-batched")
		x := b.Input(1, 5, 5)
		x = b.Conv2D(x, randTensor([]int{2, 1, 3, 3}, 0.4, 1), randTensor([]int{2}, 0.2, 2), 1, 0, "conv1")
		x = b.Activation(x, 0.1, 0.9, "act1")
		x = b.Flatten(x, "flat")
		x = b.Dense(x, randTensor([]int{3, 18}, 0.4, 3), randTensor([]int{3}, 0.2, 4), "fc")
		batchCompiled, batchCompileErr = core.Compile(b.Build(x), core.Options{
			Scheme:       core.SchemeRNS,
			SecurityBits: -1,
			MinLogN:      5,
			MaxLogN:      11,
			Batch:        8,
		})
	})
	if batchCompileErr != nil {
		t.Fatalf("compiling batched test circuit: %v", batchCompileErr)
	}
	return batchCompiled
}

func closeEnough(t *testing.T, got, want []float64, tol float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d outputs, want %d", ctx, len(got), len(want))
	}
	for k := range got {
		if math.Abs(got[k]-want[k]) > tol {
			t.Fatalf("%s output %d: got %v, want %v (tol %g)", ctx, k, got[k], want[k], tol)
		}
	}
}

// TestClientBatchRequestE2E exercises the one inference path on a
// capacity-8 compile: k client-packed images in the lanes of one tensor, one
// round trip, one evaluation. For k = 1 (Client.Infer) the prediction is
// bit-identical to local inference on the same ciphertext; for a partial
// batch (3 of 8 lanes) each lane matches local single-image inference within
// rounding. The evaluation tally counts images per evaluation.
func TestClientBatchRequestE2E(t *testing.T) {
	comp := testBatchCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr, comp, 321)
	local := &chet.Session{Compiled: comp, Backend: c.backend}

	enc := c.Encrypt(randTensor([]int{1, 5, 5}, 1, 419))
	want := local.Decrypt(local.Infer(enc))
	out, err := c.Infer(enc)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	got := c.Decrypt(out)
	for k := range got.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("one-image output %d: server %v != local %v (not bit-identical)", k, got.Data[k], want.Data[k])
		}
	}

	var wantOut [][]float64
	var inputs []*tensor.Tensor
	for i := 0; i < 3; i++ {
		img := randTensor([]int{1, 5, 5}, 1, int64(420+i))
		inputs = append(inputs, img)
		wantOut = append(wantOut, local.Decrypt(local.Infer(c.Encrypt(img))).Data)
	}
	lanes, err := c.RunBatch(inputs)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(lanes) != 3 {
		t.Fatalf("RunBatch returned %d tensors, want 3", len(lanes))
	}
	for i := range lanes {
		closeEnough(t, lanes[i].Data, wantOut[i], 1e-3, "batch lane")
	}
	m := s.Metrics()
	if m.Completed != 2 || m.Evaluation.Count != 2 || len(m.BatchSizes) != 2 || m.BatchSizes[1] != 1 || m.BatchSizes[3] != 1 {
		t.Fatalf("completed=%d evaluations=%d batchSizes=%v, want two evaluations of 1 and 3 images",
			m.Completed, m.Evaluation.Count, m.BatchSizes)
	}
}
