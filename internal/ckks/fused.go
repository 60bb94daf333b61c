package ckks

import (
	"chet/internal/ring"
)

// Fused rescale-into-key-switch.
//
// The sequence Rescale-then-Relinearize — the tail of every ciphertext
// multiplication under a scale-management policy — performs three full
// passes over the ciphertext limbs when run as separate operations: the
// rescale pass (one forward NTT per surviving row, per component), the
// digit decomposition of the rescaled C2, and the mod-P correction of the
// key-switch output (another forward NTT per row, per component). Fusing
// the rescale into the key switch removes one of those passes entirely and
// shrinks another:
//
//  1. C2's division by the top prime happens in the coefficient domain,
//     inside the decomposition, between the inverse NTT the decomposition
//     performs anyway and the forward NTTs of the digit spread. The NTT is
//     linear, so dividing before the spread is bit-identical to rescaling
//     in the NTT domain first — and the 2·(level) forward transforms the
//     standalone rescale of C2 would have burned never run.
//  2. The decomposition then happens at level-1: one basis row fewer per
//     digit (and one digit fewer where the dropped prime had a digit to
//     itself) than relinearize-then-rescale order.
//  3. C0/C1's rescale correction and the key-switch mod-P correction merge
//     into a single forward NTT per output row: by linearity,
//
//	out_j = C_j·qInv + acc_j·Pinv − NTT((tQ_j·qInv + tP_j·Pinv) mod q_j)
//
//     where tQ = centered(InvNTT(C_top)) and tP is the centered
//     representative of acc's special-prime rows extended to q_j. The
//     unfused order computes NTT(tQ_j) and NTT(tP_j) separately.
//
// Every intermediate is a canonical representative mod q_j and every
// transform is exact, so the fusion is bit-identical to the unfused
// sequence — the parity tests in fused_test.go pin this.

// RelinearizeRescale returns ct relinearized to degree 1 and rescaled by
// the top chain prime, in one fused pass over the limbs. It is
// bit-identical to
//
//	cc := copy of ct; ev.Rescale(cc); return ev.Relinearize(cc)
//
// but cheaper: the decomposition runs at the post-rescale level and the
// rescale corrections ride along with transforms the key switch performs
// anyway. ct is not mutated. Degree-1 inputs skip the key switch and are
// only rescaled. Panics at level 0.
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
	if ev.rlk == nil {
		panic("ckks: evaluator has no relinearization key")
	}

	params := ev.params
	r := params.Ring()
	n := r.N
	qTop := r.Moduli[level].Q
	halfQ := qTop >> 1
	newLevel := level - 1
	qInvRow := params.rescaleQInv[level]
	qInvSRow := params.rescaleQInvShoup[level]

	// C2 to the coefficient domain, then divide by qTop there (step 1).
	coef := ev.getAcc()
	ev.forEach(level+1, func(i int) {
		copy(coef.Coeffs[i], ct.C2.Coeffs[i])
		r.InvNTTSingle(i, coef.Coeffs[i])
	})
	topC := coef.Coeffs[level]
	ev.forEach(level, func(j int) {
		qj := r.Moduli[j].Q
		qInv, qInvS := qInvRow[j], qInvSRow[j]
		row := coef.Coeffs[j]
		for k := 0; k < n; k++ {
			v := topC[k]
			var t uint64
			if v > halfQ {
				t = (qj - (qTop-v)%qj) % qj
			} else {
				t = v % qj
			}
			row[k] = ring.MulModShoup(ring.SubMod(row[k], t, qj), qInv, qInvS, qj)
		}
	})

	// Digit decomposition of the rescaled C2 at newLevel (step 2).
	dec := ev.modUp(coef, nil, newLevel)
	ev.putAcc(coef)

	// Inner product against the relinearization key, stopping before the
	// division by P — the special-prime rows feed the merged output pass.
	acc0, acc1 := ev.ksInnerProduct(dec, nil, ev.rlk.Key)
	dec.Release()

	// Merged rescale + mod-P output pass (step 3).
	out := &Ciphertext{Scale: ct.Scale / float64(qTop), Lvl: newLevel}
	out.C0 = ev.fusedOutput(ct.C0, acc0, level)
	out.C1 = ev.fusedOutput(ct.C1, acc1, level)
	ev.putAcc(acc0)
	ev.putAcc(acc1)
	return out
}

// fusedOutput computes rescale(c, qTop) + acc/P over rows 0..level-1 with a
// single forward transform per row: both corrections are combined in the
// coefficient domain and transformed together (NTT linearity). acc is a
// key-switch accumulator whose special-prime rows are consumed (and
// clobbered) here; c is read-only.
func (ev *Evaluator) fusedOutput(c, acc *ring.Poly, level int) *ring.Poly {
	params := ev.params
	r := params.Ring()
	newLevel := level - 1
	tab := params.ksTables(newLevel)
	qTop := r.Moduli[level].Q
	halfQ := qTop >> 1
	qInvRow := params.rescaleQInv[level]
	qInvSRow := params.rescaleQInvShoup[level]

	// Coefficient-domain correction sources: the key-switch special-prime
	// rows (in place — acc is scratch) and the component's top row (copied —
	// c belongs to the caller).
	scratch := ev.modDownPrepare(acc, newLevel)
	tQ := ev.getRow()
	defer ev.putRow(tQ)
	copy(tQ, c.Coeffs[level])
	r.InvNTTSingle(level, tQ)

	out := r.GetPoly(newLevel)
	ev.forEach(newLevel+1, func(j int) {
		qj := r.Moduli[j].Q
		qInv, qInvS := qInvRow[j], qInvSRow[j]
		pInv, pInvS := tab.pInv[j], tab.pInvShoup[j]
		u := ev.getRow()
		ev.modDownRow(scratch, newLevel, j, u)
		for k, vq := range tQ {
			var a uint64
			if vq > halfQ {
				a = (qj - (qTop-vq)%qj) % qj
			} else {
				a = vq % qj
			}
			u[k] = ring.AddMod(
				ring.MulModShoup(a, qInv, qInvS, qj),
				ring.MulModShoup(u[k], pInv, pInvS, qj), qj)
		}
		r.NTTSingle(j, u)
		cj, aj, oj := c.Coeffs[j], acc.Coeffs[j], out.Coeffs[j]
		for k := range oj {
			s := ring.AddMod(
				ring.MulModShoup(cj[k], qInv, qInvS, qj),
				ring.MulModShoup(aj[k], pInv, pInvS, qj), qj)
			oj[k] = ring.SubMod(s, u[k], qj)
		}
		ev.putRow(u)
	})
	r.PutPoly(scratch)
	return out
}
