package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestBasisExtenderMatchesCRT checks the extension against big-integer CRT
// reconstruction for source bases of one to fourteen primes: a uniformly random
// x below the source product S must come out as exactly x mod q_d on every
// other row. The float-corrected overshoot can only miss within ~2^-50·S of
// a multiple of S, which random inputs do not hit; the planted extremes 0
// and S−1 sit exactly there and may come out as x ± S — except from a
// one-prime source, which is the plain residue reduction and always exact.
// Every row is asked for with a bias, which must come out added.
//
// From 60-bit sources a pass of Row holds eight terms (the a source terms
// and the overshoot's), so a ring of sixteen 60-bit primes and two 40-bit
// ones also extends from bases whose term counts sit at each pass boundary
// and one past it, into rows of both widths; the third coefficient is
// planted so every source term is at its largest, y_t = s_t − 1 (x is then
// within Σ_t 1/s_t of S, an extreme like S−1).
func TestBasisExtenderMatchesCRT(t *testing.T) {
	wide, err := GenerateNTTPrimes(60, 6, 16)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := GenerateNTTPrimes(40, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	r60, err := NewRing(6, append(wide, narrow...))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Ring{testRing(t, 6, 8), r60} {
		testBasisExtender(t, r)
	}
}

// rowRange returns the row indices lo..hi-1.
func rowRange(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for j := lo; j < hi; j++ {
		rows = append(rows, j)
	}
	return rows
}

func testBasisExtender(t *testing.T, r *Ring) {
	rng := rand.New(rand.NewSource(17))
	srcs := [][]int{{0}, {5}, {0, 1}, {2, 3, 4}, {4, 5, 6, 7}, {1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6}, {6, 7}}
	last := r.Moduli[len(r.Moduli)-1]
	lazy := lazyTerms(last.b, r.Moduli[0].Q-1, last.Q-1, last.Q-1)
	for _, terms := range []int{lazy, lazy + 1, 2 * lazy, 2*lazy + 1} {
		if terms <= len(r.Moduli) {
			srcs = append(srcs, rowRange(0, terms-1)) // a sources and the overshoot
		}
	}
	for _, src := range srcs {
		be := r.NewBasisExtender(src)
		prod := big.NewInt(1)
		for _, j := range src {
			prod.Mul(prod, new(big.Int).SetUint64(r.Moduli[j].Q))
		}
		// Random x in [0, S), with the extremes planted at the first slots.
		xs := make([]*big.Int, r.N)
		for k := range xs {
			xs[k] = new(big.Int).Rand(rng, prod)
		}
		xs[0] = big.NewInt(0)
		xs[1] = new(big.Int).Sub(prod, big.NewInt(1))
		// x = Σ_t (s_t − 1)·(S/s_t) mod S has y_t = s_t − 1 for every t.
		xs[2] = new(big.Int)
		for _, j := range src {
			s := new(big.Int).SetUint64(r.Moduli[j].Q)
			hat := new(big.Int).Quo(prod, s)
			xs[2].Add(xs[2], hat.Mul(hat, s.Sub(s, big.NewInt(1))))
		}
		xs[2].Mod(xs[2], prod)
		in := r.NewPoly(r.MaxLevel())
		tmp := new(big.Int)
		for _, j := range src {
			q := new(big.Int).SetUint64(r.Moduli[j].Q)
			for k, x := range xs {
				in.Coeffs[j][k] = tmp.Mod(x, q).Uint64()
			}
		}

		leased := r.OutstandingPolys()
		scratch := be.Prepare(in)
		isSrc := map[int]bool{}
		for _, j := range src {
			isSrc[j] = true
		}
		out := make([]uint64, r.N)
		for d := range r.Moduli {
			if isSrc[d] {
				continue
			}
			bias := uint64(d) * 12345
			be.Row(scratch, d, bias, out)
			q := new(big.Int).SetUint64(r.Moduli[d].Q)
			for k, x := range xs {
				x = new(big.Int).Add(x, new(big.Int).SetUint64(bias))
				want := tmp.Mod(x, q).Uint64()
				ok := out[k] == want
				if !ok && k < 3 && len(src) > 1 {
					up := new(big.Int).Add(x, prod)
					down := new(big.Int).Sub(x, prod)
					ok = out[k] == up.Mod(up, q).Uint64() || out[k] == down.Mod(down, q).Uint64()
				}
				if !ok {
					t.Fatalf("src %v -> row %d coeff %d: got %d, want %d", src, d, k, out[k], want)
				}
			}
		}
		r.PutPoly(scratch)
		if got := r.OutstandingPolys(); got != leased {
			t.Fatalf("src %v: %d scratch polys still leased", src, got-leased)
		}
		if len(src) > 1 {
			rowPassesAtTheirBound(t, r, be, src)
		}
	}
}

// rowPassesAtTheirBound runs Row's accumulation on every target row with
// every operand at its largest — source terms one below the widest source
// prime, constants and bias at q_d − 1 — which no reachable scratch holds
// (the constants are fixed by the primes), and checks it against
// big-integer arithmetic: Row's pass width must hold at the bound itself.
func rowPassesAtTheirBound(t *testing.T, r *Ring, be *BasisExtender, src []int) {
	var widest uint64
	for _, j := range src {
		widest = max(widest, r.Moduli[j].Q)
	}
	ys := make([][]uint64, len(src)+1)
	for i := range ys {
		ys[i] = []uint64{widest - 1, widest - 2}
	}
	for d, m := range r.Moduli {
		if be.dst[d] == nil {
			continue
		}
		q := m.Q
		c := make([]uint64, len(ys))
		for i := range c {
			c[i] = q - 1
		}
		out := make([]uint64, 2)
		m.macConst(out, c, ys, be.lazy[d], false, q-1)
		for k := range out {
			want := new(big.Int).SetUint64(q - 1)
			term := new(big.Int).Mul(new(big.Int).SetUint64(ys[0][k]), new(big.Int).SetUint64(q-1))
			want.Add(want, term.Mul(term, big.NewInt(int64(len(ys)))))
			if got := want.Mod(want, new(big.Int).SetUint64(q)).Uint64(); out[k] != got {
				t.Fatalf("src %v -> row %d at the bound: coefficient %d is %d, want %d", src, d, k, out[k], got)
			}
		}
	}
}
