package ckks

import (
	"fmt"

	"chet/internal/ring"
)

// Hybrid (grouped-digit) key switching with Halevi-Shoup hoisting.
//
// A key switch re-encrypts a polynomial c under the canonical secret. It
// works over the extended basis {q_0..q_level, p_1..p_k} — the live chain
// primes plus special primes, P_k = p_1···p_k — in three steps:
//
//   - Decompose + ModUp. c's chain rows are cut into β = ⌈(level+1)/α⌉
//     digits of α consecutive primes (the last digit is partial where the
//     level ends inside a group). Each digit — an integer below its group's
//     product — is extended from its own primes to every other row of the
//     extended basis (ring.BasisExtender) and transformed forward. This is
//     one inverse NTT per chain row, then β·(level+1+k) rows, of which a
//     digit's own rows are already at hand in NTT form.
//   - Inner product of the β digits against the switching key's β (B, A)
//     pairs, per extended-basis row (ring.KeySwitchInnerProduct).
//   - ModDown: divide both accumulators by P_k, rounding to nearest, by
//     extending their special-prime rows back to the chain — k inverse and
//     level+1 forward transforms each.
//
// The noise a switch adds is a digit's magnitude over the special modulus,
// so the switch needs as many special primes as its largest digit has chain
// primes: k = min(α, level+1) (Parameters.liveSpecial). From level α-1 up
// that is all α of them. Below it the single remaining digit has only
// level+1 primes, and the switch reads the keys — RLWE samples modulo every
// prime, so modulo any subset — over the first k special primes alone; what
// they encrypt, P·s', is P_k·s' for the polynomial c·(P/P_k)^{-1}, which is
// what gets decomposed there.
//
// With α = 1 every digit is one prime, the extensions degenerate to a plain
// residue reduction, and the scheme is the classic per-prime RNS key switch
// bit for bit; larger α trades α−1 extra special primes of modulus budget
// for ⌈(level+1)/α⌉ digits instead of level+1 — fewer transforms, fewer
// multiply-accumulates and proportionally smaller keys.
//
// Hoisting: the decomposition depends only on the source ciphertext, not on
// the rotation amount, and the Galois automorphism acts on the decomposed
// digits as a per-row NTT-domain permutation. The rotations of one
// ciphertext therefore decompose it once and reuse the digits for every
// amount. RotSum (rotsum.go) goes one step further for sums of rotations,
// the inner loop of the HTC conv, pool and dense kernels: it also keeps the
// weighted sum in the extended basis and divides by P once per output.
//
// Every key switch — rotations single or summed, conjugation,
// relinearization, the fused relinearize-rescale, bootstrapping — runs
// through this one path, so a sum holding one unit-weight rotation is
// bit-identical to RotateLeft by construction.

// maxDigits bounds the digit count of a switching key (the unmarshalers
// enforce it), which lets the inner product gather its per-digit row
// headers on the stack.
const maxDigits = maxPolyRows

// decomposition holds the extended-basis NTT digits of a polynomial:
// digits[i] carries, in rows {0..level} ∪ {live special rows}, the NTT of c's
// i-th digit extended to that row's prime. It is read-only once built, so
// every rotation of a RotSum shares one.
type decomposition struct {
	level  int
	digits []*ring.Poly
	ev     *Evaluator
}

// Release returns the decomposition's digit storage to the evaluator's
// scratch pool. The decomposition must not be used afterwards.
func (dec *decomposition) Release() {
	for _, d := range dec.digits {
		dec.ev.putAcc(d)
	}
	dec.digits = nil
}

// hoistedDecompose decomposes an NTT-domain polynomial; the input is never
// mutated.
func (ev *Evaluator) hoistedDecompose(c *ring.Poly, level int) *decomposition {
	r := ev.params.Ring()
	coef := ev.getAcc()
	ev.forEach(level+1, func(i int) {
		copy(coef.Coeffs[i], c.Coeffs[i])
		r.InvNTTSingle(i, coef.Coeffs[i])
	})
	dec := ev.modUp(coef, c, level)
	ev.putAcc(coef)
	return dec
}

// modUp builds the decomposition of the polynomial whose coefficient-domain
// rows 0..level are in coef (scratch: it may be rescaled in place). ntt,
// when non-nil, is the same polynomial in the NTT domain: a digit's own rows
// are then taken from it instead of being transformed again.
func (ev *Evaluator) modUp(coef, ntt *ring.Poly, level int) *decomposition {
	params := ev.params
	r := params.Ring()
	rows := params.ksRows(level)
	beta := params.Digits(level)

	// Below level α-1 the switch leaves special primes out (liveSpecial),
	// and the polynomial is multiplied by the inverse of their product so
	// the keys' P·s' reads as P_k·s'.
	tab := params.ksTables(level)
	lift, liftShoup := tab.lift, tab.liftShoup
	scale := func(j int, in, out []uint64) {
		q := r.Moduli[j].Q
		for k, x := range in {
			out[k] = ring.MulModShoup(x, lift[j], liftShoup[j], q)
		}
	}
	if lift != nil {
		ev.forEach(level+1, func(j int) { scale(j, coef.Coeffs[j], coef.Coeffs[j]) })
	}

	dec := &decomposition{level: level, ev: ev, digits: make([]*ring.Poly, beta)}
	scratch := make([]*ring.Poly, beta)
	ev.forEach(beta, func(i int) {
		scratch[i] = params.digitExtender(i, level).Prepare(coef)
		dec.digits[i] = ev.getAcc()
	})
	ev.forEach(beta*len(rows), func(t int) {
		i, j := t/len(rows), rows[t%len(rows)]
		row := dec.digits[i].Coeffs[j]
		if lo, hi := params.digitRows(i, level); lo <= j && j < hi {
			switch {
			case ntt == nil:
				copy(row, coef.Coeffs[j])
				r.NTTSingle(j, row)
			case lift != nil:
				scale(j, ntt.Coeffs[j], row)
			default:
				copy(row, ntt.Coeffs[j])
			}
			return
		}
		params.digitExtender(i, level).Row(scratch[i], j, 0, row)
		r.NTTSingle(j, row)
	})
	for _, s := range scratch {
		r.PutPoly(s)
	}
	return dec
}

// applyGaloisHoisted produces the automorphic image of ct for galEl from
// ct's hoisted decomposition: the digit rows are gathered through the
// automorphism's NTT permutation during the key inner product, the result
// is divided by P, and the automorphism of c0 is added in.
func (ev *Evaluator) applyGaloisHoisted(ct *Ciphertext, dec *decomposition, galEl uint64) *Ciphertext {
	r := ev.params.Ring()
	level := ct.Lvl
	swk, err := ev.rtks.RotationKeyFor(galEl, level)
	if err != nil {
		panic(err)
	}
	if dec.level != level {
		panic(fmt.Sprintf("ckks: hoisted decomposition at level %d applied to ciphertext at level %d", dec.level, level))
	}
	c0, c1 := ev.keySwitchFromDecomp(dec, r.NTTPermutation(galEl), swk, ct.C0, nil)
	return &Ciphertext{C0: c0, C1: c1, Scale: ct.Scale, Lvl: level}
}

// keySwitchFromDecomp runs the per-amount half of the key switch: the inner
// product of the decomposed digits (optionally gathered through an
// automorphism permutation) against the switching key, followed by the
// division by P. It returns base0 + acc0/P and base1 + acc1/P as fresh
// arena polys at the decomposition's level; base0 is read through perm as
// well (the automorphism of a rotation's c0), and base1 may be nil.
func (ev *Evaluator) keySwitchFromDecomp(dec *decomposition, perm []int, swk *SwitchingKey, base0, base1 *ring.Poly) (*ring.Poly, *ring.Poly) {
	acc0, acc1 := ev.ksInnerProduct(dec, perm, swk)
	return ev.modDown(acc0, dec.level, base0, perm), ev.modDown(acc1, dec.level, base1, nil)
}

// ksInnerProduct is the inner product alone, without the division by P: the
// returned accumulators still carry the special-prime rows. The fused
// rescale-into-key-switch output pass consumes them directly; everything
// else goes through keySwitchFromDecomp. Each extended-basis row
// accumulates over all digits independently, so rows partition cleanly
// across intra-op workers and the result is bit-identical to serial.
func (ev *Evaluator) ksInnerProduct(dec *decomposition, perm []int, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	r := ev.params.Ring()
	rows := ev.params.ksRows(dec.level)
	beta := len(dec.digits)

	acc0 := ev.getAcc()
	acc1 := ev.getAcc()
	ev.forEach(len(rows), func(ri int) {
		j := rows[ri]
		var xs, b, a [maxDigits][]uint64
		for i := 0; i < beta; i++ {
			xs[i] = dec.digits[i].Coeffs[j]
			b[i] = swk.B[i].Coeffs[j]
			a[i] = swk.A[i].Coeffs[j]
		}
		r.Moduli[j].KeySwitchInnerProduct(acc0.Coeffs[j], acc1.Coeffs[j], xs[:beta], b[:beta], a[:beta], perm)
	})
	return acc0, acc1
}

// modDownPrepare starts the division of a level's key-switch accumulator by
// its special modulus P_k: it takes acc's live special-prime rows to the
// coefficient domain in place (acc is scratch), adds ⌊P_k/2⌋ so the division
// rounds to nearest, and prepares their extension to the chain. The caller
// reads rows with modDownRow and returns the scratch to the ring arena.
func (ev *Evaluator) modDownPrepare(acc *ring.Poly, level int) *ring.Poly {
	params := ev.params
	r := params.Ring()
	tab := params.ksTables(level)
	chain := len(params.qChain)
	ev.forEach(params.liveSpecial(level), func(k int) {
		j := chain + k
		p, half := r.Moduli[j].Q, tab.half[j]
		row := acc.Coeffs[j]
		r.InvNTTSingle(j, row)
		for i := range row {
			row[i] = ring.AddMod(row[i], half, p)
		}
	})
	return tab.ext.Prepare(acc)
}

// modDownRow writes into out the coefficient-domain residues mod q_j of the
// centered representative of [acc]_{P_k} — the term ModDown subtracts before
// multiplying by P_k^{-1}. (The extension sees the value shifted up by
// ⌊P_k/2⌋; the bias shifts it back.)
func (ev *Evaluator) modDownRow(scratch *ring.Poly, level, j int, out []uint64) {
	tab := ev.params.ksTables(level)
	tab.ext.Row(scratch, j, ev.params.qChain[j]-tab.half[j], out)
}

// modDown divides a key-switch accumulator (rows 0..level valid, plus the
// live special-prime rows) by P_k with rounding to nearest, in the NTT
// domain, and returns base + acc/P_k as a fresh arena poly at the given
// level; base is read through perm when perm is non-nil, and counts as zero
// when nil. The accumulator goes back to the pool.
func (ev *Evaluator) modDown(acc *ring.Poly, level int, base *ring.Poly, perm []int) *ring.Poly {
	params := ev.params
	r := params.Ring()
	tab := params.ksTables(level)
	ev.modDowns.Add(1)
	scratch := ev.modDownPrepare(acc, level)
	out := r.GetPoly(level)
	ev.forEach(level+1, func(j int) {
		tmp := ev.getRow()
		ev.modDownRow(scratch, level, j, tmp)
		r.NTTSingle(j, tmp)
		qj := r.Moduli[j].Q
		pInv, pInvS := tab.pInv[j], tab.pInvShoup[j]
		accJ, outJ := acc.Coeffs[j], out.Coeffs[j]
		for k := range outJ {
			outJ[k] = ring.MulModShoup(ring.SubMod(accJ[k], tmp[k], qj), pInv, pInvS, qj)
		}
		switch {
		case base == nil:
		case perm == nil:
			for k, b := range base.Coeffs[j] {
				outJ[k] = ring.AddMod(outJ[k], b, qj)
			}
		default:
			baseJ := base.Coeffs[j]
			for k, pk := range perm {
				outJ[k] = ring.AddMod(outJ[k], baseJ[pk], qj)
			}
		}
		ev.putRow(tmp)
	})
	r.PutPoly(scratch)
	ev.putAcc(acc)
	return out
}
