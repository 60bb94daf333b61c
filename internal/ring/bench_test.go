package ring

import (
	"math/rand"
	"testing"
)

// benchBits are the prime sizes the ring benchmarks run at: a chain prime,
// whose lazy bound runs to millions of terms, and a special prime, whose
// bound is eight.
var benchBits = []int{40, 60}

// benchName names a sub-benchmark by ring size and prime size.
func benchName(logN, bits int) string { return "logN=" + itoa(logN) + "/bits=" + itoa(bits) }

// benchSetup builds one NTT table and a random row for the given sizes.
func benchSetup(b *testing.B, logN, bits int) (*nttTables, []uint64) {
	b.Helper()
	primes, err := GenerateNTTPrimes(bits, logN, 1)
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
	for _, logN := range []int{11, 13, 15} {
		for _, bits := range benchBits {
			b.Run(benchName(logN, bits), func(b *testing.B) {
				tables, a := benchSetup(b, logN, bits)
				b.SetBytes(int64(8 * len(a)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tables.forward(a)
				}
			})
		}
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
	tables, a := benchSetup(b, 13, 50)
	b.SetBytes(int64(8 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables.forwardStrict(a)
	}
}

// BenchmarkNTTInverse measures the lazy-reduction inverse transform.
func BenchmarkNTTInverse(b *testing.B) {
	for _, logN := range []int{11, 13, 15} {
		for _, bits := range benchBits {
			b.Run(benchName(logN, bits), func(b *testing.B) {
				tables, a := benchSetup(b, logN, bits)
				b.SetBytes(int64(8 * len(a)))
				for i := 0; i < b.N; i++ {
					tables.inverse(a)
				}
			})
		}
	}
}

// benchRows returns count random rows of n residues of q.
func benchRows(rng *rand.Rand, count, n int, q uint64) [][]uint64 {
	rows := make([][]uint64, count)
	for i := range rows {
		rows[i] = make([]uint64, n)
		for k := range rows[i] {
			rows[i][k] = rng.Uint64() % q
		}
	}
	return rows
}

// BenchmarkKeySwitchInnerProduct measures one row of the key-switch
// multiply-accumulate in both forms: a Barrett reduction after every
// product, which is what a per-product kernel costs, and the 128-bit lazy
// kernel the evaluator uses, which reduces once per pass of up to four
// digits.
func BenchmarkKeySwitchInnerProduct(b *testing.B) {
	const logN = 12
	n := 1 << logN
	for _, bits := range benchBits {
		primes, err := GenerateNTTPrimes(bits, logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		q := primes[0]
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(11))
		xs, ws := benchRows(rng, 12, n, q), benchRows(rng, 12, n, q)
		acc, acc1 := make([]uint64, n), make([]uint64, n)
		perm := rng.Perm(n)
		b.Run("barrett/bits="+itoa(bits), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				for k := 0; k < n; k++ {
					acc[k] = AddMod(acc[k], m.BRed(xs[0][k], ws[0][k]), q)
				}
			}
		})
		// Both key polys: 2·digits·n multiply-accumulates per call.
		for _, digits := range []int{3, 4, 12} {
			b.Run("lazy-128/bits="+itoa(bits)+"/digits="+itoa(digits), func(b *testing.B) {
				b.SetBytes(int64(2 * 8 * digits * n))
				for i := 0; i < b.N; i++ {
					m.KeySwitchInnerProduct(acc, acc1, xs[:digits], ws[:digits], ws[:digits], perm)
				}
			})
		}
	}
}

// BenchmarkMulAddConst measures the scalar-weighted multiply-accumulate of
// a sum of rotations: nine and twenty-five terms, a 3×3 and a 5×5
// convolution's taps.
func BenchmarkMulAddConst(b *testing.B) {
	const logN = 12
	n := 1 << logN
	for _, bits := range benchBits {
		primes, err := GenerateNTTPrimes(bits, logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		q := primes[0]
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(13))
		xs := benchRows(rng, 25, n, q)
		cs := benchRows(rng, 1, 25, q)[0]
		acc := make([]uint64, n)
		for _, terms := range []int{9, 25} {
			b.Run("bits="+itoa(bits)+"/terms="+itoa(terms), func(b *testing.B) {
				b.SetBytes(int64(8 * terms * n))
				for i := 0; i < b.N; i++ {
					m.MulAddConst(acc, cs[:terms], xs[:terms])
				}
			})
		}
	}
}

// BenchmarkBasisExtenderRow measures one target row of a basis extension
// from five source primes — a ModUp digit or a ModDown's special primes
// for α = 5 — between 40- and 60-bit primes both ways.
func BenchmarkBasisExtenderRow(b *testing.B) {
	const logN = 12
	for _, dir := range [][2]int{{40, 60}, {60, 40}} {
		src, err := GenerateNTTPrimes(dir[0], logN, 5)
		if err != nil {
			b.Fatal(err)
		}
		dst, err := GenerateNTTPrimes(dir[1], logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRing(logN, append(src, dst...))
		if err != nil {
			b.Fatal(err)
		}
		be := r.NewBasisExtender([]int{0, 1, 2, 3, 4})
		in := r.NewPoly(r.MaxLevel())
		NewSampler(r, NewTestPRNG(3)).UniformPoly(in, r.MaxLevel())
		scratch := be.Prepare(in)
		out := make([]uint64, r.N)
		b.Run("bits="+itoa(dir[0])+"to"+itoa(dir[1]), func(b *testing.B) {
			b.SetBytes(int64(8 * 6 * r.N))
			for i := 0; i < b.N; i++ {
				be.Row(scratch, 5, 1, out)
			}
		})
		r.PutPoly(scratch)
	}
}
