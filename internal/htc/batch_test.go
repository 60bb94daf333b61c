package htc

import (
	"math"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
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
func batchParity(t *testing.T, name string, mkBackend func() hisa.Backend, sc Scales, tol float64) {
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
	in := EncryptTensorBatch(b, imgs, plan, sc)
	out := Execute(b, c, in, PolicyCHW, sc, ExecOptions{})
	batched := DecryptTensorBatch(b, out, B)

	unplan := PlanFor(c, PolicyCHW) // same geometry decisions, batch 1
	for i, img := range imgs {
		ub := mkBackend()
		uin := EncryptTensor(ub, img, unplan, sc)
		uout := Execute(ub, c, uin, PolicyCHW, sc, ExecOptions{})
		want := DecryptTensor(ub, uout)
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
	batchParity(t, "ref", func() hisa.Backend { return hisa.NewRefBackend(4096) },
		DefaultScales(), 1e-5)
}

func TestBatchedParitySim(t *testing.T) {
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	batchParity(t, "sim", func() hisa.Backend {
		return hisa.NewSimBackend(hisa.SimParams{LogN: 13, LogQ: 900, Seed: 7})
	}, sc, 5e-2)
}

func TestBatchedParityRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	logQ := []int{50}
	for i := 0; i < 15; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 11, LogQ: logQ, LogP: 50, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	batchParity(t, "rns", func() hisa.Backend {
		return hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(101)})
	}, sc, 1e-2)
}
