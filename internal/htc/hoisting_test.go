package htc

import (
	"math"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// noSumShim runs every sum of rotations as its unfused sequence over the
// wrapped backend: one rotation, product and addition at a time.
type noSumShim struct{ hisa.Backend }

func (s noSumShim) RotSum(srcs []hisa.Ciphertext, sums [][]hisa.Term, each func(n int, fn func(i int))) []hisa.Ciphertext {
	return hisa.RotSumUnfused(s.Backend, srcs, sums, each, nil)
}

// TestKernelsHoistedParityRNS runs the rotation-heavy kernels on the real
// RNS backend twice — once directly (sums kept in the extended basis, one
// ModDown per output) and once behind noSumShim —
// and requires the decrypted outputs to agree within the rounding bound of
// the fused sum (ckks TestRotSumMatchesUnfused): (1 + Σ|w|)·N(N+1)/Δ per sum,
// with Σ|w| taken over every tap and channel of the filter and every term of
// the placement sum. The global pool, which sums no rotations, stays
// bit-identical. Rotation-only and plaintext-free sums are bit-identical in
// principle too; what the bound pins is that fusion is an execution-cost
// optimization, not a change of result.
func TestKernelsHoistedParityRNS(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     11,
		LogQ:     []int{50, 40, 40, 40, 40},
		LogP:     50,
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(41)})
	shim := noSumShim{b}

	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	img := randTensor([]int{2, 7, 7}, 1, 11)
	filters := randTensor([]int{3, 2, 3, 3}, 0.5, 12)
	bias := randTensor([]int{3}, 0.2, 13)
	n := float64(params.N())
	rounding := n * (n + 1) / sc.Pc
	sumW := 0.0
	for _, w := range filters.Data {
		sumW += math.Abs(w)
	}

	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		// One encryption shared by both runs: kernels are functional, so
		// the two executions see the very same input ciphertexts.
		in := EncryptTensor(b, Plan{Layout: layout, Apron: 1}, sc, img)

		conv := Conv2D(b, in, filters, bias, 1, 1, sc, ExecOptions{Workers: 4})
		convShim := Conv2D(shim, in, filters, bias, 1, 1, sc, ExecOptions{Workers: 4})
		requireWithin(t, layout.String()+"/conv", DecryptTensor(b, conv, 1)[0], DecryptTensor(b, convShim, 1)[0],
			(2+sumW+float64(filters.Shape[0]))*rounding)

		pool := AvgPool2D(b, conv, 2, 2, sc, ExecOptions{})
		poolShim := AvgPool2D(shim, conv, 2, 2, sc, ExecOptions{})
		requireWithin(t, layout.String()+"/pool", DecryptTensor(b, pool, 1)[0], DecryptTensor(b, poolShim, 1)[0], 5*rounding)

		// 3x3 spatial dims at this point are non-powers-of-two: the global
		// pool's fold takes its double-and-add path.
		gap := GlobalAvgPool2D(b, pool, sc, ExecOptions{})
		gapShim := GlobalAvgPool2D(shim, pool, sc, ExecOptions{})
		requireBitIdentical(t, layout.String()+"/gap",
			DecryptTensor(b, gap, 1)[0], DecryptTensor(b, gapShim, 1)[0])
	}
}

// requireWithin fails unless every element of got is within tol of want.
func requireWithin(t *testing.T, name string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size mismatch: %d vs %d", name, got.Size(), want.Size())
	}
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
			t.Fatalf("%s: element %d: %v is %g from the unfused %v, bound %g", name, i, got.Data[i], d, want.Data[i], tol)
		}
	}
}
