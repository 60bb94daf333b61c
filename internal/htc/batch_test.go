package htc

import (
	"math"
	"testing"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

func argmax(t *tensor.Tensor) int {
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// batchParity runs the shared property on one backend: a batched evaluation
// of B images must agree per-lane with B independent unbatched evaluations —
// elementwise within tol, and with identical argmax predictions.
func batchParity(t *testing.T, name string, mkBackend func() hisa.RunsBackend, sc Scales, tol float64) {
	t.Helper()
	const B = 4
	c, _ := testCNN()
	plan := PlanFor(c, PolicyCHW)
	plan.Batch = B

	imgs := make([]*tensor.Tensor, B)
	for i := range imgs {
		imgs[i] = randTensor([]int{1, 8, 8}, 1, int64(500+i))
	}

	b := mkBackend()
	in := EncryptTensor(b, plan, sc, imgs...)
	out := Execute(b, c, in, PolicyCHW, sc, ExecOptions{})
	batched := DecryptTensor(b, out, B)

	unplan := PlanFor(c, PolicyCHW) // same geometry decisions, batch 1
	for i, img := range imgs {
		ub := mkBackend()
		uin := EncryptTensor(ub, unplan, sc, img)
		uout := Execute(ub, c, uin, PolicyCHW, sc, ExecOptions{})
		want := DecryptTensor(ub, uout, 1)[0]
		got := batched[i]
		if got.Size() != want.Size() {
			t.Fatalf("%s lane %d: %d outputs, want %d", name, i, got.Size(), want.Size())
		}
		for k := range want.Data {
			if math.Abs(got.Data[k]-want.Data[k]) > tol {
				t.Fatalf("%s lane %d output %d: batched %g vs unbatched %g (tol %g)",
					name, i, k, got.Data[k], want.Data[k], tol)
			}
		}
		if ga, wa := argmax(got), argmax(want); ga != wa {
			t.Fatalf("%s lane %d: batched argmax %d != unbatched argmax %d", name, i, ga, wa)
		}
	}
}

func TestBatchedParityRef(t *testing.T) {
	batchParity(t, "ref", func() hisa.RunsBackend { return refBackend() },
		DefaultScales(), 1e-5)
}
