package ring

import (
	"math/rand"
	"testing"
)

// benchSetup builds one NTT table and a random row for the given size.
func benchSetup(b *testing.B, logN int) (*nttTables, []uint64) {
	b.Helper()
	primes, err := GenerateNTTPrimes(50, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := primes[0]
	tables := newNTTTables(q, logN)
	rng := rand.New(rand.NewSource(7))
	a := make([]uint64, 1<<uint(logN))
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	return tables, a
}

// BenchmarkNTTForward measures the lazy-reduction forward transform.
func BenchmarkNTTForward(b *testing.B) {
	tables, a := benchSetup(b, 13)
	b.SetBytes(int64(8 * len(a)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables.forward(a)
	}
}

// BenchmarkPooledRingKernels measures the arena-backed hot path the
// evaluator runs per ciphertext op: lease a poly, NTT round trip, key-switch
// MAC, automorphism, release. ReportAllocs is the point — the pooled rewrite
// holds this at 0 allocs/op (gated exactly by TestRingKernelAllocs).
func BenchmarkPooledRingKernels(b *testing.B) {
	r := testRing(b, 12, 4)
	level := r.MaxLevel()
	s := NewSampler(r, NewTestPRNG(5))
	a := r.NewPoly(level)
	w := r.NewPoly(level)
	out := r.NewPoly(level)
	s.UniformPoly(a, level)
	s.UniformPoly(w, level)
	galEl := r.GaloisElementForRotation(1)
	b.SetBytes(int64(8 * r.N * (level + 1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.GetPoly(level)
		t.CopyLevel(a, level)
		r.NTT(t, level)
		r.InvNTT(t, level)
		r.MulCoeffsAndAdd(t, w, out, level)
		r.AutomorphismNTT(t, galEl, out, level)
		r.PutPoly(t)
	}
}

// BenchmarkNTTForwardStrict measures the fully-reduced reference forward
// transform, the baseline the lazy variant is an optimization over.
func BenchmarkNTTForwardStrict(b *testing.B) {
	tables, a := benchSetup(b, 13)
	b.SetBytes(int64(8 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables.forwardStrict(a)
	}
}

// BenchmarkNTTInverse measures the lazy-reduction inverse transform.
func BenchmarkNTTInverse(b *testing.B) {
	tables, a := benchSetup(b, 13)
	b.SetBytes(int64(8 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables.inverse(a)
	}
}

// BenchmarkKeySwitchInnerProduct measures one row of the key-switch
// multiply-accumulate in both forms: the Barrett baseline the evaluator
// used before hoisting, and the Shoup-lazy kernel it uses now.
func BenchmarkKeySwitchInnerProduct(b *testing.B) {
	const logN = 13
	primes, err := GenerateNTTPrimes(50, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := primes[0]
	m := NewModulus(q)
	rng := rand.New(rand.NewSource(11))
	n := 1 << uint(logN)
	x := make([]uint64, n)
	w := make([]uint64, n)
	acc := make([]uint64, n)
	acc1 := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64() % q
		w[i] = rng.Uint64() % q
	}

	b.Run("barrett", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			for k := 0; k < n; k++ {
				acc[k] = AddMod(acc[k], m.BRed(x[k], w[k]), q)
			}
		}
	})
	// Three digits, both key polys: 6n multiply-accumulates per call.
	b.Run("lazy-128", func(b *testing.B) {
		xs := [][]uint64{x, x, x}
		ws := [][]uint64{w, w, w}
		b.SetBytes(int64(6 * 8 * n))
		for i := 0; i < b.N; i++ {
			m.KeySwitchInnerProduct(acc, acc1, xs, ws, ws, nil)
		}
	})
}
