package ckks

import (
	"chet/internal/ring"
)

// Relinearization with the closing rescale folded into its output pass.
//
// Every ciphertext product under the rescale protocol ends in
// Rescale(Relinearize(d)). Run as two operations, the key switch's ModDown
// transforms every output row forward (ℓ+1 NTTs per component) and the
// rescale then takes the top row back (one inverse NTT) and every surviving
// row forward again (ℓ NTTs). Both corrections are linear, so they merge:
//
//   - The top row is needed only in the coefficient domain. By linearity
//     of the inverse NTT, the relinearized top row is
//
//	v = INTT(C_ℓ + acc_ℓ·P⁻¹) − tP_ℓ·P⁻¹   (mod q_ℓ)
//
//     where tP is ModDown's coefficient-domain correction (the centered
//     representative of acc's special-prime rows, extended to q_ℓ). One
//     inverse transform, and row ℓ is never transformed forward.
//   - Every surviving row j < ℓ takes both corrections in one forward
//     transform:
//
//	out_j = (C_j + acc_j·P⁻¹ − NTT(tP_j·P⁻¹ + [v]_j))·q_ℓ⁻¹
//
//     with [v]_j the centered v reduced mod q_j, which is what the rescale
//     subtracts.
//
// Per component that is one inverse and ℓ forward transforms where the pair
// runs one inverse and 2ℓ+1 forward. Every intermediate is a canonical
// residue and every transform is exact, so the result is bit-identical to
// the unfused pair — the parity tests in fused_test.go and
// ks_parity_test.go pin this.

// RelinearizeRescale returns ct relinearized to degree 1 and rescaled by
// its top chain prime. It is bit-identical to
//
//	ev.Rescale(ev.Relinearize(ct))
//
// but cheaper: the relinearization key switch runs at ct's level, and its
// ModDown output pass absorbs the rescale (see above). ct is not mutated.
// Degree-1 inputs skip the key switch and are only rescaled. Panics at level
// 0.
func (ev *Evaluator) RelinearizeRescale(ct *Ciphertext) *Ciphertext {
	level := ct.Lvl
	if level == 0 {
		panic("ckks: cannot rescale below level 0")
	}
	if ct.C2 == nil {
		out := ev.copyCt(ct)
		ev.Rescale(out)
		return out
	}
	swk := ev.relinKey(level)
	dec := ev.hoistedDecompose(ct.C2, level)
	acc0, acc1 := ev.ksInnerProduct(dec, nil, swk)
	dec.Release()

	out := &Ciphertext{Scale: ct.Scale / float64(ev.params.Qi(level)), Lvl: level - 1}
	out.C0 = ev.fusedOutput(ct.C0, acc0, level)
	out.C1 = ev.fusedOutput(ct.C1, acc1, level)
	ev.putAcc(acc0)
	ev.putAcc(acc1)
	return out
}

// fusedOutput computes rescale(c + acc/P) over rows 0..level-1, where acc is
// a key-switch accumulator at the level (its special-prime rows are
// consumed and clobbered here) and c is read-only, or rescale(acc/P) when c
// is nil: one inverse transform of row level, then one forward transform
// per surviving row.
func (ev *Evaluator) fusedOutput(c, acc *ring.Poly, level int) *ring.Poly {
	params := ev.params
	r := params.Ring()
	tab := params.ksTables(level)
	qInvRow := params.rescaleQInv[level]
	qInvSRow := params.rescaleQInvShoup[level]
	scratch := ev.modDownPrepare(acc, level)

	// The relinearized top row in the coefficient domain.
	mTop := r.Moduli[level]
	qTop := mTop.Q
	halfQ := qTop >> 1
	top := ev.getRow()
	defer ev.putRow(top)
	tP := ev.getRow()
	ev.modDownRow(scratch, level, level, tP)
	pInv, pInvS := tab.pInv[level], tab.pInvShoup[level]
	aTop := acc.Coeffs[level]
	for k := range top {
		top[k] = ring.MulModShoup(aTop[k], pInv, pInvS, qTop)
	}
	if c != nil {
		for k, v := range c.Coeffs[level] {
			top[k] = ring.AddMod(top[k], v, qTop)
		}
	}
	r.InvNTTSingle(level, top)
	for k, t := range tP {
		top[k] = ring.SubMod(top[k], ring.MulModShoup(t, pInv, pInvS, qTop), qTop)
	}
	ev.putRow(tP)

	out := r.GetPoly(level - 1)
	ev.forEach(level, func(j int) {
		mj := r.Moduli[j]
		qj := mj.Q
		qInv, qInvS := qInvRow[j], qInvSRow[j]
		pInv, pInvS := tab.pInv[j], tab.pInvShoup[j]
		u := ev.getRow()
		ev.modDownRow(scratch, level, j, u)
		for k, v := range top {
			var a uint64
			if v > halfQ {
				a = ring.NegMod(mj.Reduce128(0, qTop-v), qj)
			} else {
				a = mj.Reduce128(0, v)
			}
			u[k] = ring.AddMod(ring.MulModShoup(u[k], pInv, pInvS, qj), a, qj)
		}
		r.NTTSingle(j, u)
		aj, oj := acc.Coeffs[j], out.Coeffs[j]
		for k := range oj {
			s := ring.MulModShoup(aj[k], pInv, pInvS, qj)
			if c != nil {
				s = ring.AddMod(c.Coeffs[j][k], s, qj)
			}
			oj[k] = ring.MulModShoup(ring.SubMod(s, u[k], qj), qInv, qInvS, qj)
		}
		ev.putRow(u)
	})
	r.PutPoly(scratch)
	return out
}
