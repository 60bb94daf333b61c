package core

import (
	"math"
	"testing"

	"chet/internal/hisa"
)

// TestHoistedRotationPricing pins the shape of the hoisted cost model: one
// batch pays setup once plus a cheap step per amount, a single hoisted
// rotation costs about one plain rotation, and a batch of 8 is at least
// 1.5x cheaper than 8 plain rotations.
func TestHoistedRotationPricing(t *testing.T) {
	m := DefaultCostModel(SchemeRNS)
	n := 8192.0
	st := state{r: 4}

	rotate := m.Rotate(n, st)
	setup := m.RotateHoistedSetup(n, st)
	step := m.RotateHoistedStep(n, st)
	if setup <= 0 || step <= 0 {
		t.Fatalf("hoisted costs must be positive: setup=%g step=%g", setup, step)
	}
	if one := setup + step; math.Abs(one-rotate)/rotate > 0.15 {
		t.Fatalf("one hoisted rotation %g should cost ~ one plain rotation %g", one, rotate)
	}
	const k = 8
	if hoisted, plain := setup+k*step, k*rotate; plain < 1.5*hoisted {
		t.Fatalf("model must predict >=1.5x speedup for %d amounts: hoisted %g plain %g", k, hoisted, plain)
	}

	// CKKS has no hoisted path: the batch degenerates to plain rotations.
	ck := DefaultCostModel(SchemeCKKS)
	if s := ck.RotateHoistedSetup(n, state{logQ: 600}); s != 0 {
		t.Fatalf("CKKS hoisted setup = %g, want 0", s)
	}
	if s, r := ck.RotateHoistedStep(n, state{logQ: 600}), ck.Rotate(n, state{logQ: 600}); s != r {
		t.Fatalf("CKKS hoisted step = %g, want plain rotation %g", s, r)
	}
}

// TestAnalysisRotLeftManyConsistency checks the transfer function of a
// rotation batch (a RotSum of single unit-weight terms) against the
// sequential one: identical rotation-step records (so key
// selection and op counts don't depend on batching) and a strictly lower
// priced tally on the RNS target, including amounts that fall back to
// multi-step decomposition.
func TestAnalysisRotLeftManyConsistency(t *testing.T) {
	mk := func() *Analysis {
		return testAnalysis(Options{Scheme: SchemeRNS, PowerOfTwoRotationsOnly: true}, 13)
	}
	cost := func(a *Analysis) float64 { return a.price(&a.ops, state{r: 6}) }
	ks := []int{1, 2, 4, 8, 16, 32, 64, 128, 3, 0} // 3 = 1+2 fallback, 0 free

	batch := mk()
	ct := batch.Encrypt(batch.Encode(nil, 1<<20))
	hisa.RotLeftMany(batch, ct, ks)

	seq := mk()
	ct2 := seq.Encrypt(seq.Encode(nil, 1<<20))
	for _, k := range ks {
		seq.RotLeft(ct2, k)
	}

	if batch.RotationOps() != seq.RotationOps() {
		t.Fatalf("rotation ops diverge: batch %d seq %d", batch.RotationOps(), seq.RotationOps())
	}
	bk, sk := batch.Rotations(), seq.Rotations()
	if len(bk) != len(sk) {
		t.Fatalf("rotation key sets diverge: %v vs %v", bk, sk)
	}
	for i := range bk {
		if bk[i] != sk[i] {
			t.Fatalf("rotation key sets diverge: %v vs %v", bk, sk)
		}
	}
	if cost(batch) >= cost(seq) {
		t.Fatalf("hoisted batch cost %g should beat sequential %g", cost(batch), cost(seq))
	}
	if cost(seq) < 1.5*cost(batch) {
		t.Fatalf("8 single-step amounts should be >=1.5x cheaper hoisted: %g vs %g", cost(batch), cost(seq))
	}
}
