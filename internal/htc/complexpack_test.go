package htc

import (
	"math"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// complexParity is batchParity's complex-packed sibling: B images packed two
// per slot lane (real and imaginary components) must decode per-lane to the
// same outputs as B independent unbatched real evaluations. This exercises
// every packing-aware site at once — addVecBoth/addScalarBoth bias reaching
// both components, activationPairwise's single-conjugation identity, and the
// deferred relinearization on backends that support it.
func complexParity(t *testing.T, name string, mkBackend func() hisa.Backend, sc Scales, tol float64) {
	t.Helper()
	const B = 4
	c, _ := testCNN()
	plan := PlanFor(c, PolicyCHW)
	plan.Batch = B
	plan.Complex = true

	imgs := make([]*tensor.Tensor, B)
	for i := range imgs {
		imgs[i] = randTensor([]int{1, 8, 8}, 1, int64(700+i))
	}

	b := mkBackend()
	in := EncryptTensor(b, plan, sc, imgs...)
	if !in.Complex {
		t.Fatalf("%s: encrypted batch lost the Complex flag", name)
	}
	out := Execute(b, c, in, PolicyCHW, sc, ExecOptions{})
	batched := DecryptTensor(b, out, B)

	unplan := PlanFor(c, PolicyCHW) // same geometry, batch 1, real packing
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
				t.Fatalf("%s lane %d output %d: complex-packed %g vs unbatched %g (tol %g)",
					name, i, k, got.Data[k], want.Data[k], tol)
			}
		}
		if ga, wa := argmax(got), argmax(want); ga != wa {
			t.Fatalf("%s lane %d: complex-packed argmax %d != unbatched argmax %d", name, i, ga, wa)
		}
	}
}

func TestComplexParityRef(t *testing.T) {
	complexParity(t, "ref", func() hisa.Backend { return hisa.NewRefBackend(4096) },
		DefaultScales(), 1e-5)
}

func TestComplexParitySim(t *testing.T) {
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	complexParity(t, "sim", func() hisa.Backend {
		return hisa.NewSimBackend(hisa.SimParams{LogN: 13, LogQ: 900, Seed: 7})
	}, sc, 5e-2)
}

func TestComplexParityRNS(t *testing.T) {
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
	complexParity(t, "rns", func() hisa.Backend {
		return hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(103)})
	}, sc, 1e-2)
}

// TestMulPairwiseComponentwise pins the conjugation identity directly: for
// complex-packed x = p+qi and y = r+si, mulPairwise must return pr + qs·i —
// each lane sees an ordinary elementwise product, nothing leaks across
// components. Verified on the plaintext oracle where the only error is float
// roundoff.
func TestMulPairwiseComponentwise(t *testing.T) {
	b := refBackend()
	sc := DefaultScales()
	plan := Plan{Layout: LayoutCHW, Batch: 2, Complex: true}

	ts := make([]*tensor.Tensor, 4)
	for i := range ts {
		ts[i] = randTensor([]int{2, 3, 3}, 1, int64(710+i))
	}
	x := EncryptTensor(b, plan, sc, ts[:2]...)
	y := EncryptTensor(b, plan, sc, ts[2:]...)

	out := metaClone(x)
	out.CTs = make([]hisa.Ciphertext, x.NumCTs())
	for g := range x.CTs {
		out.CTs[g] = mulPairwise(b, x.CTs[g], y.CTs[g])
	}

	for lane, got := range DecryptTensor(b, &out, 2) {
		want := tensor.New(ts[lane].Shape...)
		for k := range want.Data {
			want.Data[k] = ts[lane].Data[k] * ts[2+lane].Data[k]
		}
		tensorsClose(t, "pairwise product lane", got, want, 1e-9)
	}
}
