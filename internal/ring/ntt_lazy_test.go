package ring

import (
	"math/rand"
	"testing"
)

// chainPrimes generates a realistic RNS chain (mixed bit sizes) for the
// lazy-vs-strict agreement tests.
func chainPrimes(t *testing.T, logN int) []uint64 {
	t.Helper()
	var primes []uint64
	for _, bits := range []int{30, 40, 50, 60} {
		ps, err := GenerateNTTPrimes(bits, logN, 2)
		if err != nil {
			t.Fatalf("generating %d-bit primes: %v", bits, err)
		}
		primes = append(primes, ps...)
	}
	return primes
}

// TestLazyNTTMatchesStrict checks that the lazy-reduction forward and
// inverse transforms are bit-identical to the fully-reduced reference
// transforms on random inputs, for every chain prime and several sizes:
// N = 2 (the plain one-stage path), 4 and 8 (the radix-4 passes at their
// edges: one group, and the inverse's last stage right after its first
// two), single-segment rings, and 2^13 and 2^15, which run several global
// stages before the transform splits into nttBlock segments.
func TestLazyNTTMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, logN := range []int{1, 2, 3, 4, 8, 11, 13, 15} {
		n := 1 << uint(logN)
		for _, q := range chainPrimes(t, logN) {
			tables := newNTTTables(q, logN)
			for trial := 0; trial < 4; trial++ {
				a := make([]uint64, n)
				for i := range a {
					a[i] = rng.Uint64() % q
				}
				lazy := append([]uint64(nil), a...)
				strict := append([]uint64(nil), a...)

				tables.forward(lazy)
				tables.forwardStrict(strict)
				for i := range lazy {
					if lazy[i] != strict[i] {
						t.Fatalf("logN=%d q=%d: forward lazy[%d]=%d strict=%d", logN, q, i, lazy[i], strict[i])
					}
					if lazy[i] >= q {
						t.Fatalf("logN=%d q=%d: forward output %d not reduced", logN, q, lazy[i])
					}
				}

				tables.inverse(lazy)
				tables.inverseStrict(strict)
				for i := range lazy {
					if lazy[i] != strict[i] {
						t.Fatalf("logN=%d q=%d: inverse lazy[%d]=%d strict=%d", logN, q, i, lazy[i], strict[i])
					}
					if lazy[i] != a[i] {
						t.Fatalf("logN=%d q=%d: round trip[%d]=%d, want %d", logN, q, i, lazy[i], a[i])
					}
				}
			}
		}
	}
}

// TestKeySwitchInnerProduct checks the multiply-accumulate kernels —
// KeySwitchInnerProduct with and without the gather permutation, MulAdd
// and MulAddConst accumulating into their outputs — against a scalar
// AddMod/MulMod reference, for odd and even term counts up to the largest
// supported prime size. The counts sit at every pass boundary and one past
// it: the unrolled widths (4 and 8) for every modulus, and where the lazy
// bound is small enough to reach (the 60- and 61-bit primes), its own
// multiples too. Operands are biased toward q−1 and are exactly q−1 in the
// first coefficient, so the unreduced sums reach their bound.
func TestKeySwitchInnerProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 100
	for _, bits := range []int{30, 50, 60, 61} {
		q := uint64(1<<61 - 1)
		if bits < 61 {
			primes, err := GenerateNTTPrimes(bits, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			q = primes[0]
		}
		m := NewModulus(q)
		counts := []int{1, 3, 4, 5, 8, 9, 16, 17, 23}
		if m.lazy < 64 {
			counts = append(counts, m.lazy, m.lazy+1, 2*m.lazy, 2*m.lazy+1)
		}
		for _, digits := range counts {
			rows := func() [][]uint64 {
				out := make([][]uint64, digits)
				for d := range out {
					out[d] = make([]uint64, n)
					for i := range out[d] {
						out[d][i] = q - 1 - rng.Uint64()%3
					}
					out[d][0] = q - 1
				}
				return out
			}
			xs, b, a := rows(), rows(), rows()
			cs := make([]uint64, digits)
			for d := range cs {
				cs[d] = q - 1 - rng.Uint64()%3
			}
			cs[0] = q - 1
			start := make([]uint64, n)
			for i := range start {
				start[i] = q - 1 - rng.Uint64()%2
			}
			for _, perm := range [][]int{nil, rng.Perm(n)} {
				got0, got1 := make([]uint64, n), make([]uint64, n)
				m.KeySwitchInnerProduct(got0, got1, xs, b, a, perm)
				for i := 0; i < n; i++ {
					src := i
					if perm != nil {
						src = perm[i]
					}
					var want0, want1 uint64
					for d := 0; d < digits; d++ {
						want0 = AddMod(want0, MulMod(xs[d][src], b[d][i], q), q)
						want1 = AddMod(want1, MulMod(xs[d][src], a[d][i], q), q)
					}
					if got0[i] != want0 || got1[i] != want1 {
						t.Fatalf("%d-bit q, %d digits, perm=%v: out[%d] = (%d, %d), want (%d, %d)",
							bits, digits, perm != nil, i, got0[i], got1[i], want0, want1)
					}
				}
			}
			acc0, acc1, accC := append([]uint64(nil), start...), append([]uint64(nil), start...), append([]uint64(nil), start...)
			m.MulAdd(acc0, acc1, xs, b, a)
			m.MulAddConst(accC, cs, xs)
			for i := 0; i < n; i++ {
				want0, want1, wantC := start[i], start[i], start[i]
				for d := 0; d < digits; d++ {
					want0 = AddMod(want0, MulMod(xs[d][i], b[d][i], q), q)
					want1 = AddMod(want1, MulMod(xs[d][i], a[d][i], q), q)
					wantC = AddMod(wantC, MulMod(cs[d], xs[d][i], q), q)
				}
				if acc0[i] != want0 || acc1[i] != want1 || accC[i] != wantC {
					t.Fatalf("%d-bit q, %d terms: MulAdd/MulAddConst out[%d] = (%d, %d, %d), want (%d, %d, %d)",
						bits, digits, i, acc0[i], acc1[i], accC[i], want0, want1, wantC)
				}
			}
		}
	}
}
