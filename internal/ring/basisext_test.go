package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestBasisExtenderMatchesCRT checks the extension against big-integer CRT
// reconstruction for source bases of one to seven primes: a uniformly random
// x below the source product S must come out as exactly x mod q_d on every
// other row. The float-corrected overshoot can only miss within ~2^-50·S of
// a multiple of S, which random inputs do not hit; the planted extremes 0
// and S−1 sit exactly there and may come out as x ± S — except from a
// one-prime source, which is the plain residue reduction and always exact.
// Every row is asked for with a bias, which must come out added.
func TestBasisExtenderMatchesCRT(t *testing.T) {
	// 60-bit primes put four-term passes at the top of Reduce128's range.
	wide, err := GenerateNTTPrimes(60, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	r60, err := NewRing(6, wide)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Ring{testRing(t, 6, 8), r60} {
		testBasisExtender(t, r)
	}
}

func testBasisExtender(t *testing.T, r *Ring) {
	rng := rand.New(rand.NewSource(17))
	for _, src := range [][]int{{0}, {5}, {0, 1}, {2, 3, 4}, {4, 5, 6, 7}, {1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6}, {6, 7}} {
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
				if !ok && k < 2 && len(src) > 1 {
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
	}
}
