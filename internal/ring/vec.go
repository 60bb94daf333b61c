package ring

import "math/bits"

// The multiply-accumulate kernels: every 128-bit inner product of the
// package goes through macRows or macConst. Both sum their terms unreduced
// in 128 bits and reduce each output coefficient once per pass. A pass
// holds as many terms as the modulus allows (Modulus.lazy, or Row's own
// width) up to the widest kernel, four terms of two outputs or eight of
// one, and a pass of g terms runs the kernel unrolled for exactly g: its
// sums stay in registers, and every row it reads is a sub-slice of the
// output's length, free of bounds checks. A read through a permutation is
// the one indexed load left. Measured, a 128-bit sum carried through
// memory from one chunk of terms to the next costs more than the reduction
// it saves, so on a chain row, where lazy runs to millions, the unroll
// rather than the bound ends a pass; on a 60-bit special row both allow
// eight terms, and on a 61-bit row the bound ends it at four.

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
// materialized. Inputs must be < q; outputs are canonical.
func (m Modulus) KeySwitchInnerProduct(out0, out1 []uint64, xs, b, a [][]uint64, perm []int) {
	m.macRows(out0, out1, xs, perm, b, a, false)
}

// MulAdd adds Σ_i w[i]⊙b[i] into out0 and Σ_i w[i]⊙a[i] into out1: the
// inner product's kernel accumulating into its outputs, for two
// polynomials weighted alike — the two components of a ciphertext times one
// plaintext per term. Inputs must be < q; outputs stay canonical.
func (m Modulus) MulAdd(out0, out1 []uint64, w, b, a [][]uint64) {
	m.macRows(out0, out1, w, nil, b, a, true)
}

// MulAddConst adds Σ_i c[i]·xs[i] into out: the scalar-weighted member of
// the family, for terms whose weight is one residue per row. Inputs must
// be < q; out stays canonical.
func (m Modulus) MulAddConst(out, c []uint64, xs [][]uint64) {
	m.macConst(out, c, xs, m.lazy, true, 0)
}

// macRows sets (or, with add, adds to) out0 = Σ_i s[i][π(k)]·y0[i][k] and
// out1 = Σ_i s[i][π(k)]·y1[i][k], π being perm or the identity. Every term
// is a product of two residues, so a pass takes up to m.lazy of them.
func (m Modulus) macRows(out0, out1 []uint64, s [][]uint64, perm []int, y0, y1 [][]uint64, add bool) {
	width := min(m.lazy, 4)
	for fromOut := add; len(s) > 0; fromOut = true {
		g := min(width, len(s))
		switch g {
		case 1:
			macRows1(m, out0, out1, s, perm, y0, y1, fromOut)
		case 2:
			macRows2(m, out0, out1, s, perm, y0, y1, fromOut)
		case 3:
			macRows3(m, out0, out1, s, perm, y0, y1, fromOut)
		default:
			macRows4(m, out0, out1, s, perm, y0, y1, fromOut)
		}
		s, y0, y1 = s[g:], y0[g:], y1[g:]
	}
}

// macConst sets (or, with add, adds to) out = bias + Σ_i c[i]·xs[i]; bias
// must be 0 with add. A pass takes up to lazy products of a constant and a
// row value on top of one residue: bias, out, or the previous pass's
// result.
func (m Modulus) macConst(out, c []uint64, xs [][]uint64, lazy int, add bool, bias uint64) {
	width := min(lazy, 8)
	for fromOut := add; len(xs) > 0; fromOut = true {
		g := min(width, len(xs))
		switch g {
		case 1:
			macConst1(m, out, c, xs, fromOut, bias)
		case 2:
			macConst2(m, out, c, xs, fromOut, bias)
		case 3:
			macConst3(m, out, c, xs, fromOut, bias)
		case 4:
			macConst4(m, out, c, xs, fromOut, bias)
		case 5:
			macConst5(m, out, c, xs, fromOut, bias)
		case 6:
			macConst6(m, out, c, xs, fromOut, bias)
		case 7:
			macConst7(m, out, c, xs, fromOut, bias)
		default:
			macConst8(m, out, c, xs, fromOut, bias)
		}
		c, xs = c[g:], xs[g:]
	}
}

// macRows1 … macRows4 and macConst1 … macConst8 each run one pass of as
// many terms, reading only that many of the rows they are passed; each
// starts from the outputs when fromOut is set, else from zero or the bias.
// macRows and macConst call them directly, not through a table of
// functions: an indirect call makes every slice its caller passes escape,
// so a key switch's digit rows would be heap-allocated on every call.

// macConst1 … macConst8 are macConst's passes of 1 … 8 terms.

func macConst1(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:1], xs[:1]
	w0 := w[0]
	x0 := xs[0][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst2(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:2], xs[:2]
	w0, w1 := w[0], w[1]
	x0, x1 := xs[0][:len(out)], xs[1][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst3(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:3], xs[:3]
	w0, w1, w2 := w[0], w[1], w[2]
	x0, x1, x2 := xs[0][:len(out)], xs[1][:len(out)], xs[2][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x2[k], w2)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst4(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:4], xs[:4]
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	x0, x1, x2, x3 := xs[0][:len(out)], xs[1][:len(out)], xs[2][:len(out)], xs[3][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x2[k], w2)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x3[k], w3)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst5(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:5], xs[:5]
	w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
	x0, x1, x2, x3, x4 := xs[0][:len(out)], xs[1][:len(out)], xs[2][:len(out)], xs[3][:len(out)], xs[4][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x2[k], w2)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x3[k], w3)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x4[k], w4)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst6(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:6], xs[:6]
	w0, w1, w2, w3, w4, w5 := w[0], w[1], w[2], w[3], w[4], w[5]
	x0, x1, x2, x3, x4, x5 := xs[0][:len(out)], xs[1][:len(out)], xs[2][:len(out)], xs[3][:len(out)], xs[4][:len(out)], xs[5][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x2[k], w2)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x3[k], w3)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x4[k], w4)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x5[k], w5)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst7(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:7], xs[:7]
	w0, w1, w2, w3, w4, w5, w6 := w[0], w[1], w[2], w[3], w[4], w[5], w[6]
	x0, x1, x2, x3, x4, x5, x6 := xs[0][:len(out)], xs[1][:len(out)], xs[2][:len(out)], xs[3][:len(out)], xs[4][:len(out)], xs[5][:len(out)], xs[6][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x2[k], w2)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x3[k], w3)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x4[k], w4)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x5[k], w5)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x6[k], w6)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

func macConst8(m Modulus, out, w []uint64, xs [][]uint64, fromOut bool, bias uint64) {
	w, xs = w[:8], xs[:8]
	w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	x0, x1, x2, x3, x4, x5, x6, x7 := xs[0][:len(out)], xs[1][:len(out)], xs[2][:len(out)], xs[3][:len(out)], xs[4][:len(out)], xs[5][:len(out)], xs[6][:len(out)], xs[7][:len(out)]
	for k := range out {
		h, l := uint64(0), bias
		if fromOut {
			l = out[k]
		}
		var ph, pl, c uint64
		ph, pl = bits.Mul64(x0[k], w0)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x1[k], w1)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x2[k], w2)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x3[k], w3)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x4[k], w4)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x5[k], w5)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x6[k], w6)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		ph, pl = bits.Mul64(x7[k], w7)
		l, c = bits.Add64(l, pl, 0)
		h += ph + c
		out[k] = m.Reduce128(h, l)
	}
}

// macRows1 … macRows4 are macRows' passes of 1 … 4 terms.

func macRows1(m Modulus, out0, out1 []uint64, s [][]uint64, p []int, y0, y1 [][]uint64, fromOut bool) {
	out1, s, y0, y1 = out1[:len(out0)], s[:1], y0[:1], y1[:1]
	s0 := s[0]
	y00, y10 := y0[0][:len(out0)], y1[0][:len(out0)]
	if p != nil {
		p = p[:len(out0)]
		for k, pk := range p {
			var h0, l0, h1, l1, ph, pl, c, v uint64
			if fromOut {
				l0, l1 = out0[k], out1[k]
			}
			v = s0[pk]
			ph, pl = bits.Mul64(v, y00[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y10[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
		}
		return
	}
	s0 = s0[:len(out0)]
	for k := range out0 {
		var h0, l0, h1, l1, ph, pl, c, v uint64
		if fromOut {
			l0, l1 = out0[k], out1[k]
		}
		v = s0[k]
		ph, pl = bits.Mul64(v, y00[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y10[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
	}
}

func macRows2(m Modulus, out0, out1 []uint64, s [][]uint64, p []int, y0, y1 [][]uint64, fromOut bool) {
	out1, s, y0, y1 = out1[:len(out0)], s[:2], y0[:2], y1[:2]
	s0, s1 := s[0], s[1]
	y00, y10, y01, y11 := y0[0][:len(out0)], y1[0][:len(out0)], y0[1][:len(out0)], y1[1][:len(out0)]
	if p != nil {
		p = p[:len(out0)]
		for k, pk := range p {
			var h0, l0, h1, l1, ph, pl, c, v uint64
			if fromOut {
				l0, l1 = out0[k], out1[k]
			}
			v = s0[pk]
			ph, pl = bits.Mul64(v, y00[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y10[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			v = s1[pk]
			ph, pl = bits.Mul64(v, y01[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y11[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
		}
		return
	}
	s0, s1 = s0[:len(out0)], s1[:len(out0)]
	for k := range out0 {
		var h0, l0, h1, l1, ph, pl, c, v uint64
		if fromOut {
			l0, l1 = out0[k], out1[k]
		}
		v = s0[k]
		ph, pl = bits.Mul64(v, y00[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y10[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		v = s1[k]
		ph, pl = bits.Mul64(v, y01[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y11[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
	}
}

func macRows3(m Modulus, out0, out1 []uint64, s [][]uint64, p []int, y0, y1 [][]uint64, fromOut bool) {
	out1, s, y0, y1 = out1[:len(out0)], s[:3], y0[:3], y1[:3]
	s0, s1, s2 := s[0], s[1], s[2]
	y00, y10, y01, y11, y02, y12 := y0[0][:len(out0)], y1[0][:len(out0)], y0[1][:len(out0)], y1[1][:len(out0)], y0[2][:len(out0)], y1[2][:len(out0)]
	if p != nil {
		p = p[:len(out0)]
		for k, pk := range p {
			var h0, l0, h1, l1, ph, pl, c, v uint64
			if fromOut {
				l0, l1 = out0[k], out1[k]
			}
			v = s0[pk]
			ph, pl = bits.Mul64(v, y00[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y10[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			v = s1[pk]
			ph, pl = bits.Mul64(v, y01[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y11[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			v = s2[pk]
			ph, pl = bits.Mul64(v, y02[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y12[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
		}
		return
	}
	s0, s1, s2 = s0[:len(out0)], s1[:len(out0)], s2[:len(out0)]
	for k := range out0 {
		var h0, l0, h1, l1, ph, pl, c, v uint64
		if fromOut {
			l0, l1 = out0[k], out1[k]
		}
		v = s0[k]
		ph, pl = bits.Mul64(v, y00[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y10[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		v = s1[k]
		ph, pl = bits.Mul64(v, y01[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y11[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		v = s2[k]
		ph, pl = bits.Mul64(v, y02[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y12[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
	}
}

func macRows4(m Modulus, out0, out1 []uint64, s [][]uint64, p []int, y0, y1 [][]uint64, fromOut bool) {
	out1, s, y0, y1 = out1[:len(out0)], s[:4], y0[:4], y1[:4]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	y00, y10, y01, y11, y02, y12, y03, y13 := y0[0][:len(out0)], y1[0][:len(out0)], y0[1][:len(out0)], y1[1][:len(out0)], y0[2][:len(out0)], y1[2][:len(out0)], y0[3][:len(out0)], y1[3][:len(out0)]
	if p != nil {
		p = p[:len(out0)]
		for k, pk := range p {
			var h0, l0, h1, l1, ph, pl, c, v uint64
			if fromOut {
				l0, l1 = out0[k], out1[k]
			}
			v = s0[pk]
			ph, pl = bits.Mul64(v, y00[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y10[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			v = s1[pk]
			ph, pl = bits.Mul64(v, y01[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y11[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			v = s2[pk]
			ph, pl = bits.Mul64(v, y02[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y12[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			v = s3[pk]
			ph, pl = bits.Mul64(v, y03[k])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, y13[k])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
		}
		return
	}
	s0, s1, s2, s3 = s0[:len(out0)], s1[:len(out0)], s2[:len(out0)], s3[:len(out0)]
	for k := range out0 {
		var h0, l0, h1, l1, ph, pl, c, v uint64
		if fromOut {
			l0, l1 = out0[k], out1[k]
		}
		v = s0[k]
		ph, pl = bits.Mul64(v, y00[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y10[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		v = s1[k]
		ph, pl = bits.Mul64(v, y01[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y11[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		v = s2[k]
		ph, pl = bits.Mul64(v, y02[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y12[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		v = s3[k]
		ph, pl = bits.Mul64(v, y03[k])
		l0, c = bits.Add64(l0, pl, 0)
		h0 += ph + c
		ph, pl = bits.Mul64(v, y13[k])
		l1, c = bits.Add64(l1, pl, 0)
		h1 += ph + c
		out0[k], out1[k] = m.Reduce128(h0, l0), m.Reduce128(h1, l1)
	}
}
