package ckks

import (
	"math"
	"testing"
)

// TestRotSumMatchesUnfused is the fused sum's parity contract, for α = 1, 2, 3
// at the top level and at levels below α−1, with two sources and plaintext,
// scalar and unit weights, rotated and unrotated terms:
//
//   - a sum holding one unit-weight rotation, and a sum without rotated
//     terms, are bit-identical to RotateLeft and to the unfused MulPlain/Add
//     sequence;
//   - every other sum decrypts within the rounding bound of the unfused
//     sequence. The two differ only in the ModDown roundings: each rounds
//     both components to within one unit per coefficient, so a rounding
//     decrypts to e0 + e1·s, at most N(N+1) in any slot for a ternary
//     secret; the unfused sequence weights one such rounding per term
//     (canonical-embedding products are slotwise), the fused sum has one.
//     Per slot |fused − unfused| ≤ (1 + Σ_t max|w_t|)·N(N+1)/Δ_src;
//   - four intra-op workers are bit-identical to one, and no arena lease
//     outlives the call.
func TestRotSumMatchesUnfused(t *testing.T) {
	for _, alpha := range []int{1, 2, 3} {
		tc, ev := alphaContext(t, alpha)
		par := ev.ShallowCopy().SetIntraOpWorkers(4)
		r := tc.params.Ring()
		n := float64(tc.params.N())
		slots := tc.params.Slots()
		scale := tc.params.DefaultScale()
		top := tc.params.MaxLevel()
		va, vb := randomVector(slots, 1, 31), randomVector(slots, 1, 32)
		cta := tc.encr.Encrypt(tc.enc.Encode(va, scale, top))
		ctb := tc.encr.Encrypt(tc.enc.Encode(vb, scale, top))
		const wScale = 1 << 30
		wa, wb, wc := randomVector(slots, 1, 33), randomVector(slots, 0.5, 34), randomVector(slots, 2, 35)
		pa, pb, pc := tc.enc.Encode(wa, wScale, top), tc.enc.Encode(wb, wScale, top), tc.enc.Encode(wc, wScale, top)

		for _, level := range []int{top, alpha - 1, 0} {
			if level > 0 && level == alpha-1 {
				level-- // below α−1: fewer live special primes than α
			}
			a, b := ev.leaseAt(cta, level), ev.leaseAt(ctb, level)
			leased := r.OutstandingPolys()
			srcs := []*Ciphertext{a, b}
			sums := [][]SumTerm{
				{{Src: 0, Rot: 1, Pt: pa}, {Src: 1, Rot: 3, Pt: pb}, {Src: 0, Pt: pc}},
				{{Src: 0, Rot: 16, X: 0.5, F: wScale}, {Src: 0, Rot: 1 - slots, X: -1.25, F: wScale}, {Src: 1, X: 2, F: wScale}},
				{{Src: 0, Rot: 1}, {Src: 0, Rot: 3}, {Src: 1}},
				{{Src: 1, Rot: 3}},
				{{Src: 0, Pt: pa}, {Src: 1, Pt: pb}},
			}
			fused := ev.RotSum(srcs, sums)
			fusedPar := par.RotSum(srcs, sums)
			if got, want := ctDigest(fusedPar...), ctDigest(fused...); got != want {
				t.Fatalf("α=%d level %d: 4 intra-op workers differ from 1", alpha, level)
			}
			if got, want := r.OutstandingPolys()-leased, int64(2*2*len(sums)); got != want {
				t.Fatalf("α=%d level %d: %d arena leases outlive RotSum, want %d (its outputs)", alpha, level, got, want)
			}

			rot := func(c *Ciphertext, k int) *Ciphertext { return ev.RotateLeft(c, k) }
			sum := func(xs ...*Ciphertext) *Ciphertext {
				acc := xs[0]
				for _, x := range xs[1:] {
					acc = ev.Add(acc, x)
				}
				return acc
			}
			unfused := []*Ciphertext{
				sum(ev.MulPlain(rot(a, 1), pa), ev.MulPlain(rot(b, 3), pb), ev.MulPlain(a, pc)),
				sum(ev.MulScalar(rot(a, 16), 0.5, wScale), ev.MulScalar(rot(a, 1-slots), -1.25, wScale), ev.MulScalar(b, 2, wScale)),
				sum(rot(a, 1), rot(a, 3), b),
				rot(b, 3),
				sum(ev.MulPlain(a, pa), ev.MulPlain(b, pb)),
			}
			for _, o := range []int{3, 4} {
				if !ctEqual(fused[o], unfused[o]) {
					t.Fatalf("α=%d level %d: sum %d differs from the unfused sequence", alpha, level, o)
				}
			}
			maxW := func(v []float64) float64 { return maxAbsDiff(v, make([]float64, len(v))) }
			weightSums := []float64{maxW(wa) + maxW(wb) + maxW(wc), 0.5 + 1.25 + 2, 3}
			for o, ws := range weightSums {
				if fused[o].Lvl != level || fused[o].Scale != unfused[o].Scale {
					t.Fatalf("α=%d level %d: sum %d at level %d scale %g, want %d and %g",
						alpha, level, o, fused[o].Lvl, fused[o].Scale, level, unfused[o].Scale)
				}
				bound := (1 + ws) * n * (n + 1) / scale
				got := tc.enc.Decode(tc.decr.Decrypt(fused[o]))
				want := tc.enc.Decode(tc.decr.Decrypt(unfused[o]))
				if d := maxAbsDiff(got, want); d > bound {
					t.Fatalf("α=%d level %d: sum %d is %g from the unfused sequence, bound %g", alpha, level, o, d, bound)
				}
			}
			// The sums are what they say: sum 2 against the plaintext.
			got := tc.enc.Decode(tc.decr.Decrypt(fused[2]))
			for j := range got {
				want := va[(j+1)%slots] + va[(j+3)%slots] + vb[j]
				if d := math.Abs(got[j] - want); d > 1e-6 {
					t.Fatalf("α=%d level %d: slot %d of rot1(a)+rot3(a)+b is %g, want %g", alpha, level, j, got[j], want)
				}
			}
		}
	}
}

// TestRotSumPlaintextSpecialRows checks the lift of a plaintext to the
// special primes against an encoding that reduced the same integers modulo
// them directly, at level 0 (one residue) and above (two), and for negative,
// zero and large coefficients.
func TestRotSumPlaintextSpecialRows(t *testing.T) {
	tc, ev := alphaContext(t, 3)
	r := tc.params.Ring()
	chain := tc.params.MaxLevel() + 1
	for _, level := range []int{0, 1, 4} {
		for _, sc := range []float64{1 << 20, 1 << 58, 1 << 70} {
			if level == 0 && sc > 1<<40 {
				continue // a level-0 plaintext must fit q_0 to decode
			}
			v := randomVector(tc.params.Slots(), 1, int64(level))
			pt := tc.enc.Encode(v, sc, level)
			full := tc.enc.Encode(v, sc, r.MaxLevel()).Value // every ring row, special ones included
			rows := ev.specialRows(pt)
			for s, row := range rows {
				for k, x := range row {
					if x != full.Coeffs[chain+s][k] {
						t.Fatalf("level %d scale 2^%g: special row %d coefficient %d is %d, want %d",
							level, math.Log2(sc), s, k, x, full.Coeffs[chain+s][k])
					}
				}
			}
		}
	}
}

// TestRotSumRescaleMatchesPair: a sum of rotations that divides its outputs
// inside their ModDowns is bit-identical to RotSum followed by RescaleMany,
// at every level from 1 up, for α = 1, 2, 3, with unit, scalar and
// plaintext weights, a mask-weighted sum of four rotations (a fold's
// shape), an all-unrotated sum, and outputs
// divided by none, one and two primes in one call. Four intra-op workers
// match one, and no arena lease outlives the call.
func TestRotSumRescaleMatchesPair(t *testing.T) {
	for _, alpha := range []int{1, 2, 3} {
		tc, ev := alphaContext(t, alpha)
		par := ev.ShallowCopy().SetIntraOpWorkers(4)
		r := tc.params.Ring()
		slots := tc.params.Slots()
		scale := tc.params.DefaultScale()
		top := tc.params.MaxLevel()
		cta := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 41), scale, top))
		ctb := tc.encr.Encrypt(tc.enc.Encode(randomVector(slots, 1, 42), scale, top))
		mask := make([]float64, slots)
		for j := 0; j < slots; j += 4 {
			mask[j] = 1
		}
		pm := tc.enc.Encode(mask, scale, top)
		pw := tc.enc.Encode(randomVector(slots, 1, 43), scale, top)
		for level := 1; level <= top; level++ {
			a, b := ev.leaseAt(cta, level), ev.leaseAt(ctb, level)
			srcs := []*Ciphertext{a, b}
			sums := [][]SumTerm{
				{{Src: 0, Rot: 1, Pt: pw}, {Src: 1, Rot: 3, Pt: pw}, {Src: 0, Pt: pw}},
				{{Src: 0, Rot: 16, X: 0.5, F: scale}, {Src: 1, Rot: 1 - slots, X: -1.25, F: scale}, {Src: 1, X: 2, F: scale}},
				{{Src: 0, Rot: 1}, {Src: 0, Rot: 3}, {Src: 1}},
				{{Src: 0, Pt: pm}, {Src: 0, Rot: 1, Pt: pm}, {Src: 0, Rot: 3, Pt: pm}, {Src: 0, Rot: 16, Pt: pm}},
				{{Src: 0, Pt: pw}, {Src: 1, X: 3, F: scale}},
			}
			drops := func(o int, h *Ciphertext) int {
				if h.Lvl != level {
					t.Fatalf("α=%d level %d: output %d announced at level %d", alpha, level, o, h.Lvl)
				}
				switch {
				case o == 2:
					return 0
				case o == 1 && level >= 2:
					return 2
				}
				return 1
			}
			leased := r.OutstandingPolys()
			fused := ev.RotSumRescale(srcs, sums, drops)
			if got, want := r.OutstandingPolys()-leased, int64(2*len(sums)); got != want {
				t.Fatalf("α=%d level %d: %d arena leases outlive RotSumRescale, want %d (its outputs)", alpha, level, got, want)
			}
			if got, want := ctDigest(par.RotSumRescale(srcs, sums, drops)...), ctDigest(fused...); got != want {
				t.Fatalf("α=%d level %d: 4 intra-op workers differ from 1", alpha, level)
			}
			pair := ev.RotSum(srcs, sums)
			for o := range pair {
				ev.RescaleMany(pair[o], drops(o, pair[o]))
				if !ctEqual(fused[o], pair[o]) {
					t.Fatalf("α=%d level %d: output %d differs from RotSum then Rescale", alpha, level, o)
				}
			}
		}
	}
}
