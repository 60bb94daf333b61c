package ring

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRing(t testing.TB, logN, nPrimes int) *Ring {
	t.Helper()
	primes, err := GenerateNTTPrimes(55, logN, nPrimes)
	if err != nil {
		t.Fatalf("GenerateNTTPrimes: %v", err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	return r
}

func TestAddSubNegMod(t *testing.T) {
	q := uint64(0x1fffffffffe00001)
	f := func(a, b uint64) bool {
		x, y := a%q, b%q
		sum := AddMod(x, y, q)
		if sum != (x+y)%q {
			return false
		}
		if SubMod(sum, y, q) != x {
			return false
		}
		return AddMod(x, NegMod(x, q), q) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulModAgainstBig(t *testing.T) {
	q := uint64(0x1fffffffffe00001)
	bq := new(big.Int).SetUint64(q)
	f := func(a, b uint64) bool {
		x, y := a%q, b%q
		want := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		want.Mod(want, bq)
		return MulMod(x, y, q) == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBRedMatchesMulMod(t *testing.T) {
	for _, q := range []uint64{97, 12289, 0xffffee001, 0x1fffffffffe00001, (1 << 60) - 93} {
		if !IsPrime(q) {
			continue
		}
		m := NewModulus(q)
		f := func(a, b uint64) bool {
			x, y := a%q, b%q
			return m.BRed(x, y) == MulMod(x, y, q)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
	}
}

func TestMulModShoupMatchesMulMod(t *testing.T) {
	q := uint64(0x1fffffffffe00001)
	prng := NewTestPRNG(1)
	for i := 0; i < 5000; i++ {
		x := prng.Uint64() % q
		w := prng.Uint64() % q
		ws := MForm(w, q)
		if got, want := MulModShoup(x, w, ws, q), MulMod(x, w, q); got != want {
			t.Fatalf("MulModShoup(%d,%d)=%d want %d", x, w, got, want)
		}
	}
}

func TestPowInvMod(t *testing.T) {
	q := uint64(0x3ffffffff040001)
	if !IsPrime(q) {
		t.Skip("test modulus not prime")
	}
	for _, x := range []uint64{1, 2, 3, 12345, q - 1} {
		inv := InvMod(x, q)
		if MulMod(x, inv, q) != 1 {
			t.Fatalf("InvMod(%d) incorrect", x)
		}
	}
	if PowMod(3, 0, q) != 1 {
		t.Fatal("x^0 != 1")
	}
	if PowMod(0, 5, q) != 0 {
		t.Fatal("0^5 != 0")
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 12289: true,
		786433: true, 0: false, 1: false, 4: false, 9: false, 561: false,
		25326001: false, // Carmichael-ish composites
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	logN := 10
	primes, err := GenerateNTTPrimes(40, logN, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(primes) != 5 {
		t.Fatalf("got %d primes, want 5", len(primes))
	}
	seen := map[uint64]bool{}
	for _, p := range primes {
		if seen[p] {
			t.Fatalf("duplicate prime %d", p)
		}
		seen[p] = true
		if !IsPrime(p) {
			t.Fatalf("%d is not prime", p)
		}
		if (p-1)%(2<<uint(logN)) != 0 {
			t.Fatalf("%d is not ≡ 1 mod 2N", p)
		}
		if p>>39 != 1 {
			t.Fatalf("%d is not a 40-bit prime", p)
		}
	}
}

func TestPrimitiveRoot(t *testing.T) {
	primes, err := GenerateNTTPrimes(45, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range primes {
		psi := primitiveRoot2N(q, 8)
		n := uint64(1) << 8
		if PowMod(psi, n, q) != q-1 {
			t.Fatalf("psi^N != -1 for q=%d", q)
		}
		if PowMod(psi, 2*n, q) != 1 {
			t.Fatalf("psi^2N != 1 for q=%d", q)
		}
	}
}

func TestNTTRoundTrip(t *testing.T) {
	r := testRing(t, 9, 3)
	s := NewSampler(r, NewTestPRNG(42))
	p := r.NewPoly(r.MaxLevel())
	s.UniformPoly(p, p.Level())
	orig := p.CopyNew()
	r.NTT(p, p.Level())
	r.InvNTT(p, p.Level())
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != orig.Coeffs[i][j] {
				t.Fatalf("NTT roundtrip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// schoolbookNegacyclic computes a*b mod (X^N+1, q) directly.
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := MulMod(a[i], b[j], q)
			k := i + j
			if k < n {
				out[k] = AddMod(out[k], p, q)
			} else {
				out[k-n] = SubMod(out[k-n], p, q)
			}
		}
	}
	return out
}

func TestNTTMultiplicationMatchesSchoolbook(t *testing.T) {
	r := testRing(t, 6, 2)
	s := NewSampler(r, NewTestPRNG(7))
	level := r.MaxLevel()
	a := r.NewPoly(level)
	b := r.NewPoly(level)
	s.UniformPoly(a, level)
	s.UniformPoly(b, level)

	want := make([][]uint64, level+1)
	for i := 0; i <= level; i++ {
		want[i] = schoolbookNegacyclic(a.Coeffs[i], b.Coeffs[i], r.Moduli[i].Q)
	}

	r.NTT(a, level)
	r.NTT(b, level)
	c := r.NewPoly(level)
	r.MulCoeffs(a, b, c, level)
	r.InvNTT(c, level)

	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if c.Coeffs[i][j] != want[i][j] {
				t.Fatalf("NTT mul mismatch at (%d,%d): got %d want %d", i, j, c.Coeffs[i][j], want[i][j])
			}
		}
	}
}

func TestAutomorphismNTTMatchesCoeffDomain(t *testing.T) {
	r := testRing(t, 7, 2)
	s := NewSampler(r, NewTestPRNG(3))
	level := r.MaxLevel()
	a := r.NewPoly(level)
	s.UniformPoly(a, level)

	for _, k := range []int{1, 2, 3, -1, 13} {
		galEl := r.GaloisElementForRotation(k)

		// Reference: coefficient-domain automorphism, then NTT.
		want := r.NewPoly(level)
		r.AutomorphismCoeff(a, galEl, want, level)
		r.NTT(want, level)

		// NTT-domain permutation.
		ntt := a.CopyNew()
		r.NTT(ntt, level)
		got := r.NewPoly(level)
		r.AutomorphismNTT(ntt, galEl, got, level)

		for i := 0; i <= level; i++ {
			for j := 0; j < r.N; j++ {
				if got.Coeffs[i][j] != want.Coeffs[i][j] {
					t.Fatalf("rot %d: automorphism mismatch at (%d,%d)", k, i, j)
				}
			}
		}
	}

	// Conjugation element too.
	galEl := r.GaloisElementConjugate()
	want := r.NewPoly(level)
	r.AutomorphismCoeff(a, galEl, want, level)
	r.NTT(want, level)
	ntt := a.CopyNew()
	r.NTT(ntt, level)
	got := r.NewPoly(level)
	r.AutomorphismNTT(ntt, galEl, got, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if got.Coeffs[i][j] != want.Coeffs[i][j] {
				t.Fatalf("conjugate automorphism mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestGaloisElementRotationComposes(t *testing.T) {
	r := testRing(t, 8, 1)
	m := uint64(2 * r.N)
	g1 := r.GaloisElementForRotation(1)
	g2 := r.GaloisElementForRotation(2)
	if MulMod(g1, g1, m) != g2 {
		t.Fatalf("5^1 * 5^1 != 5^2 mod 2N")
	}
	gm1 := r.GaloisElementForRotation(-1)
	if MulMod(g1, gm1, m) != 1 {
		t.Fatalf("rot(1) and rot(-1) are not inverses")
	}
}

func TestCRTRoundTrip(t *testing.T) {
	r := testRing(t, 5, 3)
	level := r.MaxLevel()
	s := NewSampler(r, NewTestPRNG(9))
	p := r.NewPoly(level)
	s.UniformPoly(p, level)

	coeffs := r.PolyToBigintCentered(p, level)
	q := r.NewPoly(level)
	r.SetCoeffsBigint(coeffs, q, level)

	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				t.Fatalf("CRT roundtrip mismatch at (%d,%d)", i, j)
			}
		}
	}

	// Centered: all values within (-Q/2, Q/2].
	half := new(big.Int).Rsh(r.ModulusAtLevel(level), 1)
	for j, c := range coeffs {
		if c.CmpAbs(half) > 0 {
			t.Fatalf("coefficient %d not centered: %v", j, c)
		}
	}
}

func TestSamplerDistributions(t *testing.T) {
	r := testRing(t, 10, 1)
	s := NewSampler(r, NewTestPRNG(11))

	tern := r.NewPoly(0)
	s.TernaryPoly(tern, 0)
	q := r.Moduli[0].Q
	counts := map[uint64]int{}
	for _, v := range tern.Coeffs[0] {
		if v != 0 && v != 1 && v != q-1 {
			t.Fatalf("ternary coefficient %d out of {-1,0,1}", v)
		}
		counts[v]++
	}
	// Roughly uniform over three values.
	for v, c := range counts {
		if c < r.N/6 {
			t.Errorf("ternary value %d underrepresented: %d of %d", v, c, r.N)
		}
	}

	gauss := r.NewPoly(0)
	s.GaussianPoly(gauss, 0)
	var sum, sumSq float64
	for _, v := range gauss.Coeffs[0] {
		var x float64
		if v > q/2 {
			x = -float64(q - v)
		} else {
			x = float64(v)
		}
		if x > 6*DefaultSigma+1 || x < -6*DefaultSigma-1 {
			t.Fatalf("gaussian sample %v exceeds tail bound", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(r.N)
	std := sumSq / float64(r.N)
	if mean > 0.5 || mean < -0.5 {
		t.Errorf("gaussian mean %v too far from 0", mean)
	}
	if std < 2.0 || std > 25.0 {
		t.Errorf("gaussian variance %v implausible for sigma=3.2", std)
	}
}

func TestPolyArithmeticProperties(t *testing.T) {
	r := testRing(t, 6, 2)
	s := NewSampler(r, NewTestPRNG(5))
	level := r.MaxLevel()

	a, b, c := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	s.UniformPoly(a, level)
	s.UniformPoly(b, level)

	// a + b - b == a
	r.Add(a, b, c, level)
	r.Sub(c, b, c, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if c.Coeffs[i][j] != a.Coeffs[i][j] {
				t.Fatal("add/sub inverse property failed")
			}
		}
	}

	// a + (-a) == 0
	r.Neg(a, c, level)
	r.Add(a, c, c, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if c.Coeffs[i][j] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}

	// MulScalar(1) is identity; MulScalar distributes over Add.
	r.MulScalar(a, 1, c, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if c.Coeffs[i][j] != a.Coeffs[i][j] {
				t.Fatal("MulScalar(1) not identity")
			}
		}
	}

	d, e := r.NewPoly(level), r.NewPoly(level)
	r.Add(a, b, c, level)
	r.MulScalar(c, 7, c, level)
	r.MulScalar(a, 7, d, level)
	r.MulScalar(b, 7, e, level)
	r.Add(d, e, d, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if c.Coeffs[i][j] != d.Coeffs[i][j] {
				t.Fatal("MulScalar does not distribute over Add")
			}
		}
	}
}

func TestNewPolyLevelsAndCopy(t *testing.T) {
	r := testRing(t, 4, 3)
	p := r.NewPoly(1)
	if p.Level() != 1 {
		t.Fatalf("level = %d, want 1", p.Level())
	}
	p.Coeffs[0][0] = 42
	cp := p.CopyNew()
	cp.Coeffs[0][0] = 7
	if p.Coeffs[0][0] != 42 {
		t.Fatal("CopyNew aliases the original")
	}
	p.DropLevel(0)
	if p.Level() != 0 {
		t.Fatalf("level after drop = %d, want 0", p.Level())
	}
	p.Zero()
	if p.Coeffs[0][0] != 0 {
		t.Fatal("Zero did not clear coefficients")
	}
}

func TestMulCoeffsAndAdd(t *testing.T) {
	r := testRing(t, 5, 2)
	s := NewSampler(r, NewTestPRNG(8))
	level := r.MaxLevel()
	a, b := r.NewPoly(level), r.NewPoly(level)
	s.UniformPoly(a, level)
	s.UniformPoly(b, level)

	acc := r.NewPoly(level)
	prod := r.NewPoly(level)
	r.MulCoeffs(a, b, prod, level)
	r.MulCoeffsAndAdd(a, b, acc, level)
	r.MulCoeffsAndAdd(a, b, acc, level)
	want := r.NewPoly(level)
	r.Add(prod, prod, want, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if acc.Coeffs[i][j] != want.Coeffs[i][j] {
				t.Fatal("MulCoeffsAndAdd accumulation mismatch")
			}
		}
	}
}

// BenchmarkNTT measures the ring-level forward transform of one row, from
// lenet5-small's rings (2^11–2^13) to secure-tiny's (2^15).
func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{11, 12, 13, 14, 15} {
		primes, err := GenerateNTTPrimes(55, logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			b.Fatal(err)
		}
		s := NewSampler(r, NewTestPRNG(1))
		p := r.NewPoly(0)
		s.UniformPoly(p, 0)
		b.Run("N="+itoa(1<<uint(logN)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTT(p, 0)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestReduce128 checks the Barrett reduction against big-integer arithmetic
// over its whole documented range — values up to 2^(b+63), far beyond a
// single product — for moduli from 20 to 61 bits.
func TestReduce128(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range []uint64{786433, 1<<31 - 1, 0xffffffff00000001 >> 4, 1<<61 - 1, 0x1fffffffffe00001} {
		m := NewModulus(q)
		bigQ := new(big.Int).SetUint64(q)
		limit := new(big.Int).Lsh(big.NewInt(1), m.b+63)
		check := func(x *big.Int) {
			lo := new(big.Int).And(x, new(big.Int).SetUint64(^uint64(0))).Uint64()
			hi := new(big.Int).Rsh(x, 64).Uint64()
			want := new(big.Int).Mod(x, bigQ).Uint64()
			if got := m.Reduce128(hi, lo); got != want {
				t.Fatalf("q=%d: Reduce128(%v) = %d, want %d", q, x, got, want)
			}
		}
		check(big.NewInt(0))
		check(new(big.Int).Sub(limit, big.NewInt(1)))
		for i := 0; i < 20000; i++ {
			x := new(big.Int).Rand(rng, limit)
			if i%2 == 0 {
				// Cluster near multiples of q, where a quotient estimate
				// that is off by one shows.
				x.Sub(x, new(big.Int).Mod(x, bigQ))
				x.Add(x, big.NewInt(int64(i%5)-2))
				if x.Sign() < 0 || x.Cmp(limit) >= 0 {
					continue
				}
			}
			check(x)
		}
	}
}

// TestLazyTermsAtTheBound checks each modulus's pass width at its edge, for
// primes of 20 to 61 bits: lazy products of two residues at their largest,
// q−1, plus one more residue q−1 reduce exactly against big-integer
// arithmetic, and one more product would reach 2^(b+63), where Reduce128
// is no longer exact (at 30 bits and below the width saturates at MaxInt32,
// which no pass reaches). The chain's and the special primes' widths are pinned:
// over 2^20 at 36 and 40 bits, 2^19 at 44 and 8 at 60.
func TestLazyTermsAtTheBound(t *testing.T) {
	pinned := map[int]int{44: 524288, 60: 8}
	for _, b := range []int{20, 30, 36, 40, 44, 50, 55, 60, 61} {
		q := uint64(1<<61 - 1) // the one 61-bit prime below the bound
		if b < 61 {
			primes, err := GenerateNTTPrimes(b, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			q = primes[0]
		}
		m := NewModulus(q)
		if want, ok := pinned[b]; ok && m.lazy != want {
			t.Errorf("%d-bit q=%d: lazy = %d, want %d", b, q, m.lazy, want)
		}
		if (b == 36 || b == 40) && m.lazy <= 1<<20 {
			t.Errorf("%d-bit q=%d: lazy = %d, want over 2^20", b, q, m.lazy)
		}
		bigQ := new(big.Int).SetUint64(q)
		top := new(big.Int).SetUint64(q - 1)
		term := new(big.Int).Mul(top, top)
		sum := new(big.Int).Mul(term, big.NewInt(int64(m.lazy)))
		sum.Add(sum, top)
		limit := new(big.Int).Lsh(big.NewInt(1), m.b+63)
		if sum.Cmp(limit) >= 0 {
			t.Fatalf("%d-bit q=%d: %d terms reach 2^%d", b, q, m.lazy, m.b+63)
		}
		lo := new(big.Int).And(sum, new(big.Int).SetUint64(^uint64(0))).Uint64()
		hi := new(big.Int).Rsh(sum, 64).Uint64()
		if got, want := m.Reduce128(hi, lo), new(big.Int).Mod(sum, bigQ).Uint64(); got != want {
			t.Fatalf("%d-bit q=%d: %d terms reduce to %d, want %d", b, q, m.lazy, got, want)
		}
		if m.lazy < math.MaxInt32 && sum.Add(sum, term).Cmp(limit) < 0 {
			t.Fatalf("%d-bit q=%d: %d terms still fit below 2^%d; lazy is not the largest count", b, q, m.lazy+1, m.b+63)
		}
	}
}
