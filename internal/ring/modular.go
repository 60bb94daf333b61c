// Package ring implements arithmetic over the negacyclic polynomial rings
// Z_q[X]/(X^N+1) used by the RNS-CKKS homomorphic encryption scheme: 64-bit
// prime fields, NTT-friendly prime generation, negacyclic number-theoretic
// transforms, RNS (residue number system) polynomials, Galois automorphisms,
// and the random samplers required for lattice cryptography.
package ring

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Modulus bundles a word-sized prime q with the precomputed constants needed
// for fast modular reduction.
type Modulus struct {
	Q uint64 // the prime, q < 2^61

	// Barrett constants: b is q's bit length and mu = floor(2^(b+63) / q),
	// a full 64-bit word. They drive Reduce128.
	b  uint
	mu uint64

	// lazy is how many products of two residues fit unreduced, on top of
	// one more residue, under Reduce128's bound: the most terms a pass of a
	// multiply-accumulate kernel over this modulus may take.
	lazy int
}

// NewModulus precomputes reduction constants for the prime q.
// It panics if q is zero or does not fit the supported range.
func NewModulus(q uint64) Modulus {
	if q >= 1<<61 || q&(q-1) == 0 {
		panic(fmt.Sprintf("ring: modulus %d unsupported (want 0 < q < 2^61, not a power of two)", q))
	}
	b := uint(bits.Len64(q))
	// As a two-word dividend 2^(b+63) has the high word 2^(b-1), which is
	// below q for every q that is not a power of two — what Div64 requires.
	mu, _ := bits.Div64(1<<(b-1), 0, q)
	return Modulus{Q: q, b: b, mu: mu, lazy: lazyTerms(b, q-1, q-1, q-1)}
}

// lazyTerms returns the largest count K with K·x·y + extra < 2^(b+63), the
// bound below which Reduce128 is exact for a modulus of bit length b: how
// many products of operands up to x and y (both at least 1) a 128-bit
// accumulator starting at up to extra takes before it must be reduced. It
// saturates at MaxInt32.
func lazyTerms(b uint, x, y, extra uint64) int {
	room := new(big.Int).Lsh(big.NewInt(1), b+63)
	room.Sub(room, big.NewInt(1))
	room.Sub(room, new(big.Int).SetUint64(extra))
	term := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
	k := room.Quo(room, term)
	if !k.IsInt64() || k.Int64() > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k.Int64())
}

// AddMod returns (x + y) mod q. Inputs must be < q.
func AddMod(x, y, q uint64) uint64 {
	r := x + y
	if r >= q {
		r -= q
	}
	return r
}

// SubMod returns (x - y) mod q. Inputs must be < q.
func SubMod(x, y, q uint64) uint64 {
	r := x - y
	if x < y {
		r += q
	}
	return r
}

// NegMod returns (-x) mod q. Input must be < q.
func NegMod(x, q uint64) uint64 {
	if x == 0 {
		return 0
	}
	return q - x
}

// MulMod returns (x * y) mod q for x, y < q using 128-bit division.
// It is exact for any q < 2^63.
func MulMod(x, y, q uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, rem := bits.Div64(hi%q, lo, q)
	return rem
}

// BRed returns (x * y) mod q using Barrett reduction with the precomputed
// constant. Inputs must be < q. The result is fully reduced.
func (m Modulus) BRed(x, y uint64) uint64 {
	return m.Reduce128(bits.Mul64(x, y))
}

// Reduce128 returns (hi·2^64 + lo) mod q by Barrett reduction, for any value
// below 2^(b+63) where b is q's bit length (hi < 2^(b-1)). How many products
// of residues that covers depends on the modulus — eight for a 60-bit prime,
// over a million for a 40-bit one (Modulus.lazy) — so an inner product can
// accumulate unreduced 128-bit terms and pay for one reduction per
// coefficient. The result is fully reduced.
//
// The quotient estimate is the high word of (value >> (b-1)) · mu — one
// wide and one narrow multiplication — and undershoots the true quotient by
// at most 2 over the whole input range, leaving a remainder below 3q. The
// two corrections are written as selects rather than a loop: whether the
// estimate is off is a coin flip per input, and a mispredicted branch costs
// more than the whole reduction.
func (m Modulus) Reduce128(hi, lo uint64) uint64 {
	q, b := m.Q, m.b
	// The shift counts are below 64 for every supported q; the masks only
	// tell the compiler so.
	q3, _ := bits.Mul64(hi<<((65-b)&63)|lo>>((b-1)&63), m.mu)
	r := lo - q3*q
	if t := r - 2*q; t < r {
		r = t
	}
	if t := r - q; t < r {
		r = t
	}
	return r
}

// MForm computes the Shoup representation floor(x * 2^64 / q) of a fixed
// multiplicand x < q, for use with MulModShoup.
func MForm(x, q uint64) uint64 {
	hi, _ := bits.Div64(x, 0, q)
	return hi
}

// MulModShoup returns (x * w) mod q where wShoup = MForm(w, q) was
// precomputed. The result is in [0, q). This is the fast path used for
// multiplications by fixed constants such as NTT twiddle factors.
func MulModShoup(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	r := x*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// mulModShoupLazy is MulModShoup with result in [0, 2q).
func mulModShoupLazy(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	return x*w - hi*q
}

// PowMod returns x^e mod q by square-and-multiply.
func PowMod(x, e, q uint64) uint64 {
	if q == 1 {
		return 0
	}
	result := uint64(1)
	base := x % q
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, base, q)
		}
		base = MulMod(base, base, q)
		e >>= 1
	}
	return result
}

// InvMod returns x^{-1} mod q for prime q. It panics if x ≡ 0 mod q.
func InvMod(x, q uint64) uint64 {
	if x%q == 0 {
		panic("ring: division by zero in InvMod")
	}
	return PowMod(x, q-2, q)
}
