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
// transforms on random inputs, for every chain prime and several sizes.
func TestLazyNTTMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, logN := range []int{4, 8, 11} {
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

// TestKeySwitchInnerProduct checks the 128-bit lazy inner-product kernel
// against a scalar AddMod/MulMod reference, with and without the gather
// permutation, for odd and even digit counts (pair passes with and without a
// trailing single digit) and up to the largest supported prime size, with
// operands biased toward q-1 so the unreduced sums reach their bound.
func TestKeySwitchInnerProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 64
	for _, bits := range []int{30, 50, 60} {
		primes, err := GenerateNTTPrimes(bits, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModulus(primes[0])
		q := m.Q
		for _, digits := range []int{1, 3, 8, 9, 23} {
			rows := func() [][]uint64 {
				out := make([][]uint64, digits)
				for d := range out {
					out[d] = make([]uint64, n)
					for i := range out[d] {
						// Bias toward q-1 so sums reach their bound.
						out[d][i] = q - 1 - rng.Uint64()%3
					}
				}
				return out
			}
			xs, b, a := rows(), rows(), rows()
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
		}
	}
}
