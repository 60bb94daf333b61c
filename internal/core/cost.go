package core

import (
	"math"
	"sort"
)

// Scheme selects the compilation target.
type Scheme int

// The two FHE schemes CHET targets.
const (
	// SchemeCKKS is the CKKS scheme of HEAAN v1.0 (power-of-two modulus,
	// big-integer arithmetic).
	SchemeCKKS Scheme = iota
	// SchemeRNS is the RNS-CKKS scheme of SEAL v3.1 (prime modulus chain).
	SchemeRNS
)

func (s Scheme) String() string {
	if s == SchemeCKKS {
		return "CKKS(HEAAN)"
	}
	return "RNS-CKKS(SEAL)"
}

// CostModel estimates the latency of HISA primitives in microseconds,
// following the asymptotic complexities of Table 1 with constants tuned by
// microbenchmarking (Section 5.3: "a combination of theoretical and
// experimental analysis"). All methods take the ring degree N and the
// current modulus state: logQ bits for CKKS, prime count r for RNS-CKKS.
type CostModel struct {
	Scheme Scheme

	// Constants are multipliers on the asymptotic terms; the defaults were
	// calibrated against this repository's own backends (cost unit: us).
	CAdd, CScalarMul, CPlainMul, CCtMul, CRotate, CRescale float64

	// Hoisted-rotation constants (RNS only): a batch of rotations of one
	// ciphertext pays Setup once (the digit decomposition: every row of
	// every digit is extended and transformed, ~ n log n · digitRows) and
	// Step per rotation amount (the permuted key inner product, two 128-bit
	// multiply-accumulates per digit row, plus ModDown's transforms of both
	// accumulators, ~ n log n · 2·extRows). See state.digitRows.
	CRotHoistSetup, CRotHoistStep float64
}

// DefaultCostModel returns calibrated constants for a scheme.
func DefaultCostModel(s Scheme) CostModel {
	if s == SchemeCKKS {
		// HEAAN-style big-integer arithmetic: M(Q) ~ logQ^1.58.
		return CostModel{
			Scheme: s,
			CAdd:   6e-4, CScalarMul: 1.2e-5, CPlainMul: 1.6e-6,
			CCtMul: 3.2e-6, CRotate: 3.2e-6, CRescale: 1.2e-5,
		}
	}
	return CostModel{
		Scheme: s,
		CAdd:   9e-4, CScalarMul: 1.4e-3, CPlainMul: 1.4e-3,
		CCtMul: 4.5e-4, CRotate: 4.5e-4, CRescale: 2.2e-4,
		// In the ratio measured per row at N = 2^15 over levels 0..11
		// (decomposition row : ModDown row : whole-switch row = 0.75 : 0.98
		// : 1), so setup+step ~ one full rotation at every depth while each
		// extra amount costs only the step.
		CRotHoistSetup: 3.4e-4, CRotHoistStep: 4.4e-4,
	}
}

// mulComplexity is M(Q), the big-integer multiplication complexity used by
// the CKKS column of Table 1.
func mulComplexity(logQ float64) float64 {
	if logQ < 1 {
		logQ = 1
	}
	return math.Pow(logQ, 1.58)
}

// state carries the modulus position a cost estimate depends on.
type state struct {
	logQ  float64 // CKKS: remaining modulus bits
	r     float64 // RNS: remaining prime count
	alpha float64 // RNS: special primes α = chain primes per key-switch digit (0 means 1)
}

// extRows is the height of the key-switch extended basis: the r live chain
// primes plus the special primes the switch works over, min(α, r) — no more
// of them than the largest digit has chain primes. (ckks takes more below
// level α-1 when special primes sized to the slack lack the 2^8
// margin over the partial digit there; the model does not price that.)
func (st state) extRows() float64 {
	return st.r + math.Min(math.Max(1, st.alpha), st.r)
}

// digitRows is the size of a hybrid key switch's decomposition at this
// state: β = ⌈r/α⌉ digits of extRows rows each — the rows ModUp transforms
// and the inner product accumulates over. With α = 1 it is r(r+1), the
// per-prime key switch's r² up to the special-prime row; larger α divides the
// digit count and adds up to α-1 rows to each.
func (st state) digitRows() float64 {
	return math.Ceil(st.r/math.Max(1, st.alpha)) * st.extRows()
}

// keySwitchRows counts the rows a whole key switch transforms: the
// decomposition's digitRows, then ModDown's pass over the extended basis for
// each of the two accumulators. ModDown is what keeps small α from being
// free at the bottom of the chain and large α from being free at the top.
func (st state) keySwitchRows() float64 { return st.digitRows() + 2*st.extRows() }

// Add returns the cost of a ciphertext addition.
func (m CostModel) Add(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.CAdd * n * st.logQ
	}
	return m.CAdd * n * st.r
}

// ScalarMul returns the cost of a scalar multiplication.
func (m CostModel) ScalarMul(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.CScalarMul * n * mulComplexity(st.logQ)
	}
	return m.CScalarMul * n * st.r
}

// PlainMul returns the cost of a plaintext (vector) multiplication.
func (m CostModel) PlainMul(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.CPlainMul * n * math.Log2(n) * mulComplexity(st.logQ)
	}
	return m.CPlainMul * n * st.r
}

// CtMul returns the cost of a ciphertext-ciphertext multiplication
// (including relinearization).
func (m CostModel) CtMul(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.CCtMul * n * math.Log2(n) * mulComplexity(st.logQ)
	}
	return m.CCtMul * n * math.Log2(n) * st.keySwitchRows()
}

// Rotate returns the cost of one primitive rotation (one key switch).
func (m CostModel) Rotate(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.CRotate * n * math.Log2(n) * mulComplexity(st.logQ)
	}
	return m.CRotate * n * math.Log2(n) * st.keySwitchRows()
}

// RotateHoistedSetup returns the one-time cost of a hoisted rotation
// batch: the digit decomposition of the source ciphertext, shared by every
// rotation amount drawn from it. For CKKS (no hoisted path modeled) it is
// zero, so setup + k*step degenerates to k plain rotations.
func (m CostModel) RotateHoistedSetup(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return 0
	}
	return m.CRotHoistSetup * n * math.Log2(n) * st.digitRows()
}

// RotateHoistedStep returns the per-amount cost of a hoisted rotation: the
// permuted key-switch inner product (a digit row's two multiply-accumulates
// weigh about four butterflies per coefficient) plus the division of both
// accumulators by the special primes. For CKKS it falls back to a full
// rotation.
func (m CostModel) RotateHoistedStep(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.Rotate(n, st)
	}
	return m.CRotHoistStep * n * (4*st.digitRows() + math.Log2(n)*2*st.extRows())
}

// LPTMakespan estimates the wall-clock latency of executing operations
// with the given per-op costs on T parallel threads: ops are placed in
// longest-processing-time-first order onto the least-loaded thread and the
// makespan (maximum thread load) is returned. This is the T-thread
// extension of the cost analysis — the paper evaluates on a 16-core
// machine and takes the max across threads rather than the sum. Greedy LPT
// is within 4/3 of the optimal makespan, which is ample for comparing
// layout policies.
//
// threads <= 1 returns the plain left-to-right running sum, bit-exactly
// reproducing the serial sum-of-costs model (no reordering, so no
// floating-point ULP drift against historical estimates).
func LPTMakespan(costs []float64, threads int) float64 {
	if threads <= 1 {
		sum := 0.0
		for _, c := range costs {
			sum += c
		}
		return sum
	}
	sorted := append([]float64(nil), costs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	loads := make([]float64, threads)
	for _, c := range sorted {
		argmin := 0
		for i := 1; i < threads; i++ {
			if loads[i] < loads[argmin] {
				argmin = i
			}
		}
		loads[argmin] += c
	}
	makespan := 0.0
	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return makespan
}

// Rescale returns the cost of a rescaling operation.
func (m CostModel) Rescale(n float64, st state) float64 {
	if m.Scheme == SchemeCKKS {
		return m.CRescale * n * mulComplexity(st.logQ)
	}
	return m.CRescale * n * math.Log2(n) * st.r
}
