package htc

import (
	"math"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
)

// noBatchShim hides a backend's batch-rotation capability: embedding the
// Backend interface promotes only its methods, so the shim never satisfies
// hisa.RotateManyBackend even when the wrapped backend does. Kernels run on
// it take the per-amount rotation path.
type noBatchShim struct{ hisa.Backend }

// TestKernelsHoistedParityRNS runs the rotation-heavy kernels on the real
// RNS backend twice — once with the RotateMany capability visible (hoisted
// batches) and once behind a capability-hiding shim (per-amount rotations)
// — and requires bit-identical decrypted outputs. This pins the end-to-end
// guarantee that hoisting is a pure execution-cost optimization.
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
	if _, ok := any(b).(hisa.RotateManyBackend); !ok {
		t.Fatal("RNS backend should expose the batch-rotation capability")
	}
	shim := noBatchShim{b}
	if _, ok := any(shim).(hisa.RotateManyBackend); ok {
		t.Fatal("shim should hide the batch-rotation capability")
	}

	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	img := randTensor([]int{2, 7, 7}, 1, 11)
	filters := randTensor([]int{3, 2, 3, 3}, 0.5, 12)
	bias := randTensor([]int{3}, 0.2, 13)

	for _, layout := range []Layout{LayoutHW, LayoutCHW} {
		// One encryption shared by both runs: kernels are functional, so
		// the two executions see the very same input ciphertexts.
		in := EncryptTensor(b, img, Plan{Layout: layout, Apron: 1}, sc)

		conv := Conv2DOpts(b, in, filters, bias, 1, 1, sc, ExecOptions{Workers: 4})
		convShim := Conv2DOpts(shim, in, filters, bias, 1, 1, sc, ExecOptions{Workers: 4})
		requireBitIdentical(t, layout.String()+"/conv",
			DecryptTensor(b, conv), DecryptTensor(b, convShim))

		pool := AvgPool2DOpts(b, conv, 2, 2, sc, ExecOptions{})
		poolShim := AvgPool2DOpts(shim, conv, 2, 2, sc, ExecOptions{})
		requireBitIdentical(t, layout.String()+"/pool",
			DecryptTensor(b, pool), DecryptTensor(b, poolShim))

		// 3x3 spatial dims at this point are non-powers-of-two: the global
		// pool's fold takes its double-and-add path.
		gap := GlobalAvgPool2DOpts(b, pool, sc, ExecOptions{})
		gapShim := GlobalAvgPool2DOpts(shim, pool, sc, ExecOptions{})
		requireBitIdentical(t, layout.String()+"/gap",
			DecryptTensor(b, gap), DecryptTensor(b, gapShim))
	}
}

// TestRotCachePlanOpCounts checks that planned (batched) and unplanned
// (lazy) cache use report identical meter tallies: the plan holds exactly
// the distinct nonzero amounts the kernel draws, so batching must not
// change what an op-counting interpretation observes.
func TestRotCachePlanOpCounts(t *testing.T) {
	run := func(plan bool) (hisa.OpCounts, []float64) {
		inner := hisa.NewRefBackend(64)
		m := hisa.NewMeter(inner, func(x int) int { return 1 })
		base := m.Encrypt(m.Encode([]float64{1, 2, 3, 4, 5}, 1<<20))
		rc := newRotCache(m, base)
		amounts := []int{0, 1, 3, 3, 0, 5, 1}
		if plan {
			rc.planRotations(amounts)
		}
		var last hisa.Ciphertext
		for _, k := range amounts {
			last = rc.get(k)
		}
		return m.Counts(), m.Decode(m.Decrypt(last))
	}
	planned, vPlanned := run(true)
	lazy, vLazy := run(false)
	if planned != lazy {
		t.Fatalf("op counts diverge: planned %+v lazy %+v", planned, lazy)
	}
	if planned.Rotations() != 3 {
		t.Fatalf("rotations = %d, want 3 (distinct nonzero amounts)", planned.Rotations())
	}
	for i := range vPlanned {
		if vPlanned[i] != vLazy[i] {
			t.Fatalf("slot %d: planned %g != lazy %g", i, vPlanned[i], vLazy[i])
		}
	}
}
