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
//   - each output's two accumulators take one ModDown.
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
// ring row in plain and Shoup form, or neither for the unit weight.
type weight struct {
	pt            *Plaintext
	special       [][]uint64
	res, resShoup []uint64
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

// macTerms bounds the pairs a RotSum chunk holds in the extended basis at
// once, and the constant-weighted terms macConst sums per pass: four products
// of residues and the accumulator stay below Reduce128's bound.
const macTerms = 4

// macConst adds Σ_i cs[i]·xs[i] into acc for at most macTerms terms: the
// products accumulate unreduced in 128 bits, with acc, and take one
// Reduce128 per coefficient.
func macConst(m ring.Modulus, acc []uint64, xs [][]uint64, cs []uint64) {
	for k := range acc {
		h, l := uint64(0), acc[k]
		for i, x := range xs {
			ph, pl := bits.Mul64(x[k], cs[i])
			var c uint64
			l, c = bits.Add64(l, pl, 0)
			h += ph + c
		}
		acc[k] = m.Reduce128(h, l)
	}
}

// termRows gathers a sum's terms on one ring row: plaintext-weighted ones
// for ring.Modulus.MulAdd, constant-weighted ones for macConst.
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

// into adds the gathered terms into acc0 and acc1 and empties tr.
func (tr *termRows) into(m ring.Modulus, acc0, acc1 []uint64) {
	m.MulAdd(acc0, acc1, tr.w, tr.x0, tr.x1)
	for lo := 0; lo < len(tr.cs); lo += macTerms {
		hi := min(lo+macTerms, len(tr.cs))
		macConst(m, acc0, tr.c0[lo:hi], tr.cs[lo:hi])
		macConst(m, acc1, tr.c1[lo:hi], tr.cs[lo:hi])
	}
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
		for lo := 0; lo < len(pairs); lo += macTerms {
			part := pairs[lo:min(lo+macTerms, len(pairs))]
			a0 := make([]*ring.Poly, len(part))
			a1 := make([]*ring.Poly, len(part))
			perms := make([][]int, len(part))
			swks := make([]*SwitchingKey, len(part))
			for i, p := range part {
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
			ev.forEach(len(part), func(i int) {
				if part[i].k == 0 {
					// An unrotated term: P_k·c on the chain rows, zero on
					// the special rows.
					a0[i], a1[i] = ev.getAcc(), ev.getAcc()
					return
				}
				a0[i], a1[i] = ev.ksInnerProduct(dec, perms[i], swks[i])
			})
			// The chunk's terms by output, in term order.
			type term struct {
				pair int
				w    *weight
			}
			var order []int
			byOut := map[int][]term{}
			for i, p := range part {
				for _, u := range p.uses {
					if byOut[u.out] == nil {
						order = append(order, u.out)
					}
					byOut[u.out] = append(byOut[u.out], term{i, u.w})
				}
			}
			ev.forEach(len(rows), func(ri int) {
				j := rows[ri]
				m := r.Moduli[j]
				if j < chain {
					for i, p := range part {
						liftRow(m, tab.p[j], tab.pShoup[j], a0[i].Coeffs[j], src.C0.Coeffs[j], perms[i], p.k != 0)
						if p.k == 0 {
							liftRow(m, tab.p[j], tab.pShoup[j], a1[i].Coeffs[j], src.C1.Coeffs[j], nil, false)
						}
					}
				}
				var tr termRows
				for _, o := range order {
					for _, t := range byOut[o] {
						if j < chain || part[t.pair].k != 0 {
							tr.add(a0[t.pair].Coeffs[j], a1[t.pair].Coeffs[j], t.w, j, chain)
						}
					}
					tr.into(m, acc0[o].Coeffs[j], acc1[o].Coeffs[j])
				}
			})
			for i := range part {
				ev.putAcc(a0[i])
				ev.putAcc(a1[i])
			}
		}
		if dec != nil {
			dec.Release()
		}
	}
	ev.forEach(2*len(sums), func(i int) {
		switch o := i / 2; {
		case !inQP[o]:
		case i%2 == 0:
			outs[o].C0 = ev.modDown(acc0[o], level, nil, nil)
		default:
			outs[o].C1 = ev.modDown(acc1[o], level, nil, nil)
		}
	})
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
		w.resShoup = make([]uint64, len(r.Moduli))
		scalarResiduesInto(w.res, t.X, t.F, r, len(r.Moduli)-1)
		for j, c := range w.res {
			w.resShoup[j] = ring.MForm(c, r.Moduli[j].Q)
		}
	}
}

// specialRows returns pt's rows modulo the α special primes, in the NTT
// domain, computing them on the first call and caching them in pt. The
// encoded integer polynomial is recovered from the residues modulo q_0 and
// q_1 (q_0 alone at level 0), centered: exact for coefficients below
// q_0·q_1/2 in magnitude — beyond 2^100 on every chain here, where a
// plaintext's coefficients are its values times its scale — and at level 0
// exactly when the plaintext decodes.
func (ev *Evaluator) specialRows(pt *Plaintext) [][]uint64 {
	if rows := pt.special.Load(); rows != nil {
		return *rows
	}
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
	pt.special.CompareAndSwap(nil, &rows)
	return *pt.special.Load()
}
