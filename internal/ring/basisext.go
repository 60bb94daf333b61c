package ring

import (
	"fmt"
	"math/bits"
)

// Fast RNS basis extension — the ModUp/ModDown primitive of hybrid key
// switching.
//
// An integer x is known by its residues modulo a source basis S =
// {s_1..s_a} (a subset of the ring's primes, S also naming their product)
// and is needed modulo other primes of the ring. With
//
//	y_t = [x_t · (S/s_t)^{-1}]_{s_t}
//
// the CRT gives x = Σ_t y_t·(S/s_t) − u·S for the overshoot u =
// ⌊Σ_t y_t/s_t⌋ ∈ [0, a), so for a target prime d
//
//	x mod d = (Σ_t y_t·[S/s_t]_d − u·[S]_d) mod d.
//
// u comes from a float64 sum (the HPS correction): it is exact unless x/S
// lies within ~2^-50 of an integer, where it may be off by one — the output
// then represents x ± S, still congruent to x modulo S, which key switching
// absorbs as noise. A one-prime source has u ≡ 0 and y = x, so the float
// path is skipped and the extension is exactly x mod d.
//
// The primitive is split so callers can fuse it with their own per-row
// work and partition rows across workers: Prepare computes the y rows and
// the overshoot once into an arena-leased scratch poly, Row produces one
// target row from that scratch (read-only, so rows run concurrently), and
// the caller returns the scratch with PutPoly.
type BasisExtender struct {
	r   *Ring
	src []int // ring row indices of the source primes

	qHatInv, qHatInvShoup []uint64  // (S/s_t)^{-1} mod s_t, per source prime
	srcInv                []float64 // 1/s_t
	// Per ring row d (nil for source rows): [S/s_t]_d per source prime,
	// followed by d − [S]_d, so the overshoot joins the same accumulation.
	dst [][]uint64
	// lazy[d] is the most terms a pass of Row may take on row d: the
	// products of a source residue, below the widest source prime, and a
	// residue of q_d that fit on top of one residue under Reduce128's bound.
	lazy []int
}

// NewBasisExtender precomputes the extension from the ring rows in src to
// every other row of the ring. src must be non-empty and duplicate-free, and
// its primes below 2^60, so that a pass of Row may take at least eight terms
// on every target row.
func (r *Ring) NewBasisExtender(src []int) *BasisExtender {
	a := len(src)
	for _, j := range src {
		if r.Moduli[j].Q >= 1<<60 {
			panic(fmt.Sprintf("ring: basis extension from the %d-bit prime %d; sources must be below 2^60", bits.Len64(r.Moduli[j].Q), r.Moduli[j].Q))
		}
	}
	be := &BasisExtender{
		r:            r,
		src:          append([]int(nil), src...),
		qHatInv:      make([]uint64, a),
		qHatInvShoup: make([]uint64, a),
		srcInv:       make([]float64, a),
		dst:          make([][]uint64, len(r.Moduli)),
		lazy:         make([]int, len(r.Moduli)),
	}
	var widest uint64
	for _, j := range src {
		widest = max(widest, r.Moduli[j].Q)
	}
	isSrc := make(map[int]bool, a)
	for _, j := range src {
		isSrc[j] = true
	}
	// hatMod(t, m) = ∏_{t' != t} s_t' mod m; t = -1 takes the full product.
	hatMod := func(t int, m uint64) uint64 {
		prod := uint64(1) % m
		for t2, j := range src {
			if t2 != t {
				prod = MulMod(prod, r.Moduli[j].Q%m, m)
			}
		}
		return prod
	}
	for t, j := range src {
		s := r.Moduli[j].Q
		inv := InvMod(hatMod(t, s), s)
		be.qHatInv[t] = inv
		be.qHatInvShoup[t] = MForm(inv, s)
		be.srcInv[t] = 1 / float64(s)
	}
	for d := range r.Moduli {
		if isSrc[d] {
			continue
		}
		q := r.Moduli[d].Q
		row := make([]uint64, a+1)
		for t := range src {
			row[t] = hatMod(t, q)
		}
		row[a] = NegMod(hatMod(-1, q), q)
		be.dst[d] = row
		be.lazy[d] = lazyTerms(r.Moduli[d].b, widest-1, q-1, q-1)
	}
	return be
}

// Prepare reads x's coefficient-domain residues from the source rows of in
// and returns the scratch Row consumes: rows 0..a-1 hold y_t, row a the
// overshoot. The scratch is leased from the ring arena; the caller hands it
// back with PutPoly once every Row call is done.
func (be *BasisExtender) Prepare(in *Poly) *Poly {
	r := be.r
	a := len(be.src)
	s := r.GetPoly(a)
	if a == 1 {
		copy(s.Coeffs[0], in.Coeffs[be.src[0]])
		return s
	}
	for t, j := range be.src {
		q := r.Moduli[j].Q
		w, ws := be.qHatInv[t], be.qHatInvShoup[t]
		x, y := in.Coeffs[j], s.Coeffs[t]
		for k := range y {
			y[k] = MulModShoup(x[k], w, ws, q)
		}
	}
	u := s.Coeffs[a]
	for k := range u {
		v := 0.0
		for t := 0; t < a; t++ {
			// The conversion keeps the product a separately rounded
			// float64 on every architecture (no fused multiply-add).
			v += float64(float64(s.Coeffs[t][k]) * be.srcInv[t])
		}
		u[k] = uint64(v)
	}
	return s
}

// Row writes (x + bias) mod q_d into out for the non-source ring row d, from
// a scratch built by Prepare. bias must be below q_d; it lets a caller that
// extends a shifted value (ModDown's rounding offset) undo the shift without
// another pass. out may be any N-length row except a row of the scratch
// itself.
func (be *BasisExtender) Row(scratch *Poly, d int, bias uint64, out []uint64) {
	m := be.r.Moduli[d]
	a := len(be.src)
	if a == 1 {
		for k, x := range scratch.Coeffs[0][:len(out)] {
			out[k] = m.Reduce128(0, x+bias)
		}
		return
	}
	// The overshoot's row and constant follow the source terms' in the
	// scratch and in dst[d], so all a+1 terms are one constant-weighted
	// sum on top of the bias, in passes of lazy[d] terms.
	m.macConst(out, be.dst[d], scratch.Coeffs[:a+1], be.lazy[d], false, bias)
}
