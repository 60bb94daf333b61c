package ckks

import (
	"fmt"
	"math"
	"math/bits"

	"chet/internal/ring"
)

// Sums of rotations in the extended basis.
//
// Most of a neural network's homomorphic work is sums of weighted rotations
// of a few ciphertexts, Σ_t w_t · rot_{k_t}(src_t). Computed one instruction
// at a time, every rotation ends its key switch with a ModDown — a division
// of both accumulators by the special modulus P_k, k inverse and level+1
// forward transforms each — before its weight is applied. RotSum keeps the
// whole sum in the extended basis QP instead and divides once per output:
//
//   - every source is decomposed once (modUp) and every distinct (source,
//     amount) pair runs the permuted key inner product once, whatever the
//     number of outputs drawing on it;
//   - the pair's automorphed c0, and every amount-0 term, is lifted into QP
//     by multiplying it by P_k mod q_j (its special rows are zero): ModDown
//     returns such a value unchanged, exactly;
//   - each output multiply-accumulates its terms over rows 0..level plus the
//     live special rows, weights included — a plaintext weight needs its
//     rows modulo the special primes too (specialRows);
//   - each output's two accumulators take one ModDown, which also takes the
//     first prime of a rescale that follows (RotSumRescale).
//
// The work runs source by source and, within a source, row by row across
// the intra-op workers: on one extended-basis row, every pair's key inner
// product and lifted c0 go into two scratch rows, and then every output
// takes all of the source's terms on that row in one multiply-accumulate
// call, which reduces once per pass of as many terms as the modulus and
// the kernel's unroll allow. No pair ever holds a full-height polynomial.
//
// Modular sums are exact, so the term order does not matter. The only
// difference from the unfused sequence is rounding: the unfused sequence
// rounds every rotation to nearest before weighting it, RotSum rounds each
// output once. Per output, the two results therefore differ by at most
// Σ_t |w_t| rounding errors of one ModDown each, and the fused result is the
// more accurate one. A sum holding a single unit-weight rotation performs
// exactly RotateLeft's arithmetic and is bit-identical to it.

// SumTerm is one summand of a RotSum: srcs[Src] rotated left by Rot slots,
// times a weight — Pt when it is non-nil, otherwise the scalar X encoded at
// scale F when F is non-zero (as MulScalar encodes it), otherwise 1.
type SumTerm struct {
	Src  int
	Rot  int
	Pt   *Plaintext
	X, F float64
}

// scale is the weight's scale factor.
func (t SumTerm) scale() float64 {
	switch {
	case t.Pt != nil:
		return t.Pt.Scale
	case t.F != 0:
		return t.F
	}
	return 1
}

// weight is a term's weight resolved to ring rows: a plaintext's rows (pt
// for the chain, special for the special primes), or scalar residues by
// ring row, or neither for the unit weight.
type weight struct {
	pt      *Plaintext
	special [][]uint64
	res     []uint64
}

// at returns the weight on ring row j: its NTT row, or nil and a constant
// (the scalar's residue, or 1).
func (w *weight) at(j, chain int) ([]uint64, uint64) {
	switch {
	case w.pt != nil && j < chain:
		return w.pt.Value.Coeffs[j], 0
	case w.pt != nil:
		return w.special[j-chain], 0
	case w.res != nil:
		return nil, w.res[j]
	}
	return nil, 1
}

// termRows gathers a sum's terms on one ring row: plaintext-weighted ones
// for ring.Modulus.MulAdd, constant-weighted ones for MulAddConst.
type termRows struct {
	w, x0, x1 [][]uint64 // plaintext rows and the terms' two components
	c0, c1    [][]uint64 // constant-weighted terms' components
	cs        []uint64
}

func (tr *termRows) add(x0, x1 []uint64, w *weight, j, chain int) {
	if row, c := w.at(j, chain); row != nil {
		tr.w, tr.x0, tr.x1 = append(tr.w, row), append(tr.x0, x0), append(tr.x1, x1)
	} else {
		tr.c0, tr.c1, tr.cs = append(tr.c0, x0), append(tr.c1, x1), append(tr.cs, c)
	}
}

// into adds the gathered terms into acc0 and acc1 and empties tr: one
// multiply-accumulate call per kind of weight.
func (tr *termRows) into(m ring.Modulus, acc0, acc1 []uint64) {
	m.MulAdd(acc0, acc1, tr.w, tr.x0, tr.x1)
	m.MulAddConst(acc0, tr.cs, tr.c0)
	m.MulAddConst(acc1, tr.cs, tr.c1)
	tr.w, tr.x0, tr.x1 = tr.w[:0], tr.x0[:0], tr.x1[:0]
	tr.c0, tr.c1, tr.cs = tr.c0[:0], tr.c1[:0], tr.cs[:0]
}

// RotSum returns out[o] = Σ_t w_t · rot_{Rot_t}(srcs[Src_t]) over the terms
// of sums[o], computed in the extended basis with one ModDown per output (see
// the top of this file). Every output is a fresh ciphertext at the lowest
// level among the sources the call reads; its scale is that of its terms,
// which must agree. Sources must be of degree 1 and are not modified;
// plaintext weights must sit at or above the output level. A sum whose terms
// are all unrotated needs no key switch and is computed in the chain basis.
func (ev *Evaluator) RotSum(srcs []*Ciphertext, sums [][]SumTerm) []*Ciphertext {
	return ev.RotSumRescale(srcs, sums, nil)
}

// RotSumRescale is RotSum with output o then rescaled by its top drops(o, h)
// chain primes, where h holds only the output's scale and level: drops is
// called once per output, in order, before any work. It is bit-identical to
// RescaleMany(RotSum(srcs, sums)[o], drops(o, h)), but an output summed in
// the extended basis takes the first division inside its ModDown, as
// RelinearizeRescale does (fusedOutput): one inverse and ℓ forward
// transforms per component where ModDown and Rescale run ℓ+1 more forward
// ones. A nil drops rescales nothing.
func (ev *Evaluator) RotSumRescale(srcs []*Ciphertext, sums [][]SumTerm, drops func(o int, h *Ciphertext) int) []*Ciphertext {
	params := ev.params
	r := params.Ring()
	slots := params.Slots()
	chain := len(params.qChain)

	level := -1
	for _, terms := range sums {
		for _, t := range terms {
			if l := srcs[t.Src].Lvl; level < 0 || l < level {
				level = l
			}
		}
	}

	// The distinct (source, amount) pairs the sums in QP draw on, grouped by
	// source so each decomposition is released before the next is taken.
	type use struct {
		out int
		w   *weight
	}
	type pair struct {
		k    int
		uses []use
	}
	bySrc := make([][]*pair, len(srcs))
	index := map[[2]int]*pair{}
	outs := make([]*Ciphertext, len(sums))
	inQP := make([]bool, len(sums))
	weights := make([][]weight, len(sums))
	for o, terms := range sums {
		if len(terms) == 0 {
			panic("ckks: RotSum output has no terms")
		}
		scale := srcs[terms[0].Src].Scale * terms[0].scale()
		weights[o] = make([]weight, len(terms))
		for _, t := range terms {
			src := srcs[t.Src]
			if src.C2 != nil {
				panic("ckks: RotSum source of degree 2 (relinearize first)")
			}
			if s := src.Scale * t.scale(); !sameScale(s, scale) {
				panic(fmt.Sprintf("ckks: scale mismatch in RotSum: %g vs %g", s, scale))
			}
			if t.Pt != nil && t.Pt.Lvl < level {
				panic("ckks: plaintext level below ciphertext level")
			}
			if ((t.Rot%slots)+slots)%slots != 0 {
				inQP[o] = true
			}
		}
		outs[o] = &Ciphertext{Scale: scale, Lvl: level}
	}
	drop := make([]int, len(sums)) // primes each output is divided by
	if drops != nil {
		for o, h := range outs {
			drop[o] = drops(o, &Ciphertext{Scale: h.Scale, Lvl: h.Lvl})
		}
	}
	for o, terms := range sums {
		for i, t := range terms {
			w := &weights[o][i]
			ev.resolveWeight(w, t, inQP[o])
			if !inQP[o] {
				continue
			}
			k := ((t.Rot % slots) + slots) % slots
			key := [2]int{t.Src, k}
			p := index[key]
			if p == nil {
				p = &pair{k: k}
				index[key] = p
				bySrc[t.Src] = append(bySrc[t.Src], p)
			}
			p.uses = append(p.uses, use{o, w})
		}
	}

	// Sums without a rotated term: the chain basis suffices.
	for o, terms := range sums {
		if inQP[o] {
			continue
		}
		c0, c1 := r.GetPolyZero(level), r.GetPolyZero(level)
		ev.forEach(level+1, func(j int) {
			m := r.Moduli[j]
			var tr termRows
			for i, t := range terms {
				tr.add(srcs[t.Src].C0.Coeffs[j], srcs[t.Src].C1.Coeffs[j], &weights[o][i], j, chain)
			}
			tr.into(m, c0.Coeffs[j], c1.Coeffs[j])
		})
		outs[o].C0, outs[o].C1 = c0, c1
		ev.RescaleMany(outs[o], drop[o])
	}

	rows := params.ksRows(level)
	tab := params.ksTables(level)
	acc0 := make([]*ring.Poly, len(sums))
	acc1 := make([]*ring.Poly, len(sums))
	for o := range sums {
		if inQP[o] {
			acc0[o], acc1[o] = ev.getAcc(), ev.getAcc()
			ev.forEach(len(rows), func(ri int) {
				j := rows[ri]
				clear(acc0[o].Coeffs[j])
				clear(acc1[o].Coeffs[j])
			})
		}
	}
	for s, pairs := range bySrc {
		if len(pairs) == 0 {
			continue
		}
		src := srcs[s]
		var dec *decomposition
		perms := make([][]int, len(pairs))
		swks := make([]*SwitchingKey, len(pairs))
		for i, p := range pairs {
			if p.k == 0 {
				continue
			}
			if dec == nil {
				dec = ev.hoistedDecompose(src.C1, level)
			}
			galEl := r.GaloisElementForRotation(p.k)
			swk, err := ev.rtks.RotationKeyFor(galEl, level)
			if err != nil {
				panic(err)
			}
			perms[i], swks[i] = r.NTTPermutation(galEl), swk
		}
		// The source's terms by output, in term order.
		type term struct {
			pair int
			w    *weight
		}
		var order []int
		byOut := map[int][]term{}
		for i, p := range pairs {
			for _, u := range p.uses {
				if byOut[u.out] == nil {
					order = append(order, u.out)
				}
				byOut[u.out] = append(byOut[u.out], term{i, u.w})
			}
		}
		// Row by row: every pair's two components on the row — the key
		// inner product with the lifted c0, or the lifted unrotated source
		// (zero on the special rows) — then every output's terms in one
		// multiply-accumulate.
		ev.forEach(len(rows), func(ri int) {
			j := rows[ri]
			m := r.Moduli[j]
			scratch, leased := ev.getRows(2 * len(pairs))
			a0, a1 := scratch[:len(pairs)], scratch[len(pairs):]
			for i, p := range pairs {
				if p.k == 0 && j >= chain {
					a0[i], a1[i] = nil, nil
					continue
				}
				if p.k == 0 {
					liftRow(m, tab.p[j], tab.pShoup[j], a0[i], src.C0.Coeffs[j], nil, false)
					liftRow(m, tab.p[j], tab.pShoup[j], a1[i], src.C1.Coeffs[j], nil, false)
					continue
				}
				dec.innerProductRow(j, perms[i], swks[i], a0[i], a1[i])
				if j < chain {
					liftRow(m, tab.p[j], tab.pShoup[j], a0[i], src.C0.Coeffs[j], perms[i], true)
				}
			}
			var tr termRows
			for _, o := range order {
				for _, t := range byOut[o] {
					if a0[t.pair] != nil {
						tr.add(a0[t.pair], a1[t.pair], t.w, j, chain)
					}
				}
				tr.into(m, acc0[o].Coeffs[j], acc1[o].Coeffs[j])
			}
			for _, p := range leased {
				ev.putAcc(p)
			}
		})
		if dec != nil {
			dec.Release()
		}
	}
	ev.forEach(2*len(sums), func(i int) {
		o := i / 2
		acc := acc0[o]
		if i%2 == 1 {
			acc = acc1[o]
		}
		var out *ring.Poly
		switch {
		case !inQP[o]:
			return
		case drop[o] > 0:
			out = ev.fusedOutput(nil, acc, level)
			ev.putAcc(acc)
		default:
			out = ev.modDown(acc, level, nil, nil)
		}
		if i%2 == 0 {
			outs[o].C0 = out
		} else {
			outs[o].C1 = out
		}
	})
	for o, out := range outs {
		if inQP[o] && drop[o] > 0 {
			out.Scale /= float64(params.Qi(level))
			out.Lvl = level - 1
			ev.RescaleMany(out, drop[o]-1)
		}
	}
	return outs
}

// liftRow sets dst = dst + P_k·x on a chain row, or dst = P_k·x when add is
// false; x is read through perm when perm is non-nil.
func liftRow(m ring.Modulus, p, pShoup uint64, dst, x []uint64, perm []int, add bool) {
	q := m.Q
	switch {
	case perm != nil && add:
		for k, pk := range perm {
			dst[k] = ring.AddMod(dst[k], ring.MulModShoup(x[pk], p, pShoup, q), q)
		}
	case perm != nil:
		for k, pk := range perm {
			dst[k] = ring.MulModShoup(x[pk], p, pShoup, q)
		}
	case add:
		for k := range dst {
			dst[k] = ring.AddMod(dst[k], ring.MulModShoup(x[k], p, pShoup, q), q)
		}
	default:
		for k := range dst {
			dst[k] = ring.MulModShoup(x[k], p, pShoup, q)
		}
	}
}

// resolveWeight fills w for term t: the plaintext, with its special rows when
// the sum runs in QP, or the scalar's residues on every ring row. A scalar
// that encodes as exactly 1 is the unit weight, as in MulScalar.
func (ev *Evaluator) resolveWeight(w *weight, t SumTerm, qp bool) {
	switch {
	case t.Pt != nil:
		w.pt = t.Pt
		if qp {
			w.special = ev.specialRows(t.Pt)
		}
	case t.F != 0 && math.Round(t.X*t.F) != 1:
		r := ev.params.Ring()
		w.res = make([]uint64, len(r.Moduli))
		scalarResiduesInto(w.res, t.X, t.F, r, len(r.Moduli)-1)
	}
}

// specialRows returns pt's rows modulo the α special primes, in the NTT
// domain, computing them on the first call and caching them in pt.
func (ev *Evaluator) specialRows(pt *Plaintext) [][]uint64 {
	pt.specialOnce.Do(func() { pt.special = ev.liftSpecial(pt) })
	return pt.special
}

// liftSpecial computes pt's rows modulo the α special primes. The
// encoded integer polynomial is recovered from the residues modulo q_0 and
// q_1 (q_0 alone at level 0), centered: exact for coefficients below
// q_0·q_1/2 in magnitude — beyond 2^100 on every chain here, where a
// plaintext's coefficients are its values times its scale — and at level 0
// exactly when the plaintext decodes.
func (ev *Evaluator) liftSpecial(pt *Plaintext) [][]uint64 {
	params := ev.params
	r := params.Ring()
	chain := len(params.qChain)
	n := r.N
	m0 := r.Moduli[0]
	q0 := m0.Q
	r0 := make([]uint64, n)
	copy(r0, pt.Value.Coeffs[0])
	r.InvNTTSingle(0, r0)

	// Each coefficient is r0 + q0·t − neg·q0·q1 (t = 0, neg by r0 > q0/2 at
	// level 0).
	t := make([]uint64, n)
	neg := make([]bool, n)
	var q1 uint64 = 1
	if pt.Lvl == 0 {
		for k, v := range r0 {
			neg[k] = v > q0>>1
		}
	} else {
		m1 := r.Moduli[1]
		q1 = m1.Q
		r1 := make([]uint64, n)
		copy(r1, pt.Value.Coeffs[1])
		r.InvNTTSingle(1, r1)
		inv := ring.InvMod(m1.Reduce128(0, q0), q1)
		invShoup := ring.MForm(inv, q1)
		// ⌊q0·q1/2⌋ as a 128-bit value.
		hHi, hLo := bits.Mul64(q0, q1)
		hLo = hLo>>1 | hHi<<63
		hHi >>= 1
		for k, v := range r0 {
			t[k] = ring.MulModShoup(ring.SubMod(r1[k], m1.Reduce128(0, v), q1), inv, invShoup, q1)
			hi, lo := bits.Mul64(q0, t[k])
			lo, carry := bits.Add64(lo, v, 0)
			hi += carry
			neg[k] = hi > hHi || hi == hHi && lo > hLo
		}
	}
	rows := make([][]uint64, len(params.pSpecial))
	for s := range rows {
		j := chain + s
		m := r.Moduli[j]
		p := m.Q
		q0p := m.Reduce128(0, q0)
		q0q1p := m.BRed(q0p, m.Reduce128(0, q1))
		row := make([]uint64, n)
		for k, v := range r0 {
			x := ring.AddMod(m.Reduce128(0, v), m.BRed(q0p, m.Reduce128(0, t[k])), p)
			if neg[k] {
				x = ring.SubMod(x, q0q1p, p)
			}
			row[k] = x
		}
		r.NTTSingle(j, row)
		rows[s] = row
	}
	return rows
}
