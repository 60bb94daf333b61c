package ring

import "math/bits"

// KeySwitchInnerProduct is the multiply-accumulate kernel of the key-switch
// inner product, for one row of the extended basis: with one row per digit
// in xs (the decomposed ciphertext) and in b, a (the switching key),
//
//	out0[k] = Σ_i xs[i][π(k)]·b[i][k] mod q
//	out1[k] = Σ_i xs[i][π(k)]·a[i][k] mod q
//
// where π is perm, or the identity when perm is nil. Reading the digits
// through the permutation fuses the NTT-domain Galois automorphism of a
// hoisted rotation into the accumulation, so the permuted digit is never
// materialized. Digits are taken two at a time (a last odd one alone): their
// products accumulate unreduced in 128 bits and each pass ends in one
// Reduce128 per output coefficient. So the key needs no precomputed
// companion form, a hybrid switch's one or two digits cost a single
// straight-line pass, and the rows a permuted pass gathers from stay
// cache-resident however many digits a per-prime decomposition has. Inputs
// must be < q; outputs are canonical.
func (m Modulus) KeySwitchInnerProduct(out0, out1 []uint64, xs, b, a [][]uint64, perm []int) {
	i := 0
	for ; i+1 < len(xs); i += 2 {
		m.ksDigitPair(out0, out1, xs[i], xs[i+1], b[i], b[i+1], a[i], a[i+1], perm, i > 0)
	}
	if i < len(xs) {
		m.ksDigit(out0, out1, xs[i], b[i], a[i], perm, i > 0)
	}
}

// MulAdd adds Σ_i w[i]⊙b[i] into out0 and Σ_i w[i]⊙a[i] into out1: the
// inner product's kernel accumulating into its outputs, for two
// polynomials weighted alike — the two components of a ciphertext times one
// plaintext per term. Inputs must be < q; outputs stay canonical.
func (m Modulus) MulAdd(out0, out1 []uint64, w, b, a [][]uint64) {
	i := 0
	for ; i+1 < len(w); i += 2 {
		m.ksDigitPair(out0, out1, w[i], w[i+1], b[i], b[i+1], a[i], a[i+1], nil, true)
	}
	if i < len(w) {
		m.ksDigit(out0, out1, w[i], b[i], a[i], nil, true)
	}
}

// ksDigit is one single-digit pass of KeySwitchInnerProduct: it sets (or,
// with add, adds to) out0 and out1.
func (m Modulus) ksDigit(out0, out1, x, b, a []uint64, perm []int, add bool) {
	n := len(out0)
	out1, b, a = out1[:n], b[:n], a[:n]
	for k := 0; k < n; k++ {
		idx := k
		if perm != nil {
			idx = perm[k]
		}
		v := x[idx]
		h0, l0 := bits.Mul64(v, b[k])
		h1, l1 := bits.Mul64(v, a[k])
		if add {
			var c uint64
			l0, c = bits.Add64(l0, out0[k], 0)
			h0 += c
			l1, c = bits.Add64(l1, out1[k], 0)
			h1 += c
		}
		out0[k] = m.Reduce128(h0, l0)
		out1[k] = m.Reduce128(h1, l1)
	}
}

// ksDigitPair is ksDigit over two digits at once.
func (m Modulus) ksDigitPair(out0, out1, x0, x1, b0, b1, a0, a1 []uint64, perm []int, add bool) {
	n := len(out0)
	out1, b0, b1, a0, a1 = out1[:n], b0[:n], b1[:n], a0[:n], a1[:n]
	for k := 0; k < n; k++ {
		idx := k
		if perm != nil {
			idx = perm[k]
		}
		v0, v1 := x0[idx], x1[idx]
		var c uint64
		h0, l0 := bits.Mul64(v0, b0[k])
		ph, pl := bits.Mul64(v1, b1[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		h1, l1 := bits.Mul64(v0, a0[k])
		ph, pl = bits.Mul64(v1, a1[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		if add {
			l0, c = bits.Add64(l0, out0[k], 0)
			h0 += c
			l1, c = bits.Add64(l1, out1[k], 0)
			h1 += c
		}
		out0[k] = m.Reduce128(h0, l0)
		out1[k] = m.Reduce128(h1, l1)
	}
}
