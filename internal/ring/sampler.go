package ring

import (
	"crypto/rand"
	"encoding/binary"
	"math"
	"math/bits"
)

// PRNG is the source of randomness used by the samplers. Implementations
// must return uniformly distributed 64-bit words.
type PRNG interface {
	Uint64() uint64
}

// cryptoPRNG draws from crypto/rand with an internal buffer.
type cryptoPRNG struct {
	buf []byte
	pos int
}

// NewCryptoPRNG returns a cryptographically secure PRNG backed by
// crypto/rand.
func NewCryptoPRNG() PRNG {
	return &cryptoPRNG{buf: make([]byte, 4096), pos: 4096}
}

func (c *cryptoPRNG) Uint64() uint64 {
	if c.pos+8 > len(c.buf) {
		if _, err := rand.Read(c.buf); err != nil {
			panic("ring: crypto/rand failure: " + err.Error())
		}
		c.pos = 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.pos:])
	c.pos += 8
	return v
}

// testPRNG is a fast deterministic splitmix64 generator for tests and
// reproducible benchmarks. It is NOT cryptographically secure.
type testPRNG struct{ state uint64 }

// NewTestPRNG returns a deterministic PRNG seeded with seed. For tests and
// benchmarks only.
func NewTestPRNG(seed uint64) PRNG { return &testPRNG{state: seed} }

func (t *testPRNG) Uint64() uint64 {
	t.state += 0x9e3779b97f4a7c15
	z := t.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampler draws random ring elements.
type Sampler struct {
	r     *Ring
	prng  PRNG
	sigma float64 // Gaussian parameter for error sampling
	bound float64 // rejection bound (6*sigma)
}

// DefaultSigma is the standard deviation of the error distribution used by
// the homomorphic-encryption standard.
const DefaultSigma = 3.2

// NewSampler creates a sampler over r using the given randomness source.
func NewSampler(r *Ring, prng PRNG) *Sampler {
	return &Sampler{r: r, prng: prng, sigma: DefaultSigma, bound: 6 * DefaultSigma}
}

// UniformRow fills row with independent uniform residues modulo the ring's
// i-th prime (valid in either domain, since the uniform distribution is
// NTT-invariant), by rejection on the bits of the prime.
func (s *Sampler) UniformRow(i int, row []uint64) {
	q := s.r.Moduli[i].Q
	mask := uint64(1)<<uint(bits.Len64(q)) - 1
	for j := range row {
		v := s.prng.Uint64() & mask
		for v >= q {
			v = s.prng.Uint64() & mask
		}
		row[j] = v
	}
}

// UniformPoly fills rows 0..level of out with independent uniform residues.
func (s *Sampler) UniformPoly(out *Poly, level int) {
	for i := 0; i <= level; i++ {
		s.UniformRow(i, out.Coeffs[i])
	}
}

// TernaryPoly fills out (coefficient domain) with uniform ternary
// coefficients in {-1, 0, 1}, the secret-key distribution of the HE
// standard. The same signed value is used across all residue rows.
func (s *Sampler) TernaryPoly(out *Poly, level int) {
	n := s.r.N
	vals := make([]int8, n)
	for j := 0; j < n; j++ {
		// Uniform over {-1, 0, 1} by rejection on 2 bits.
		for {
			b := s.prng.Uint64() & 3
			if b < 3 {
				vals[j] = int8(b) - 1
				break
			}
		}
	}
	s.setSigned(out, vals, level)
}

// GaussianPoly fills out (coefficient domain) with centered discrete
// Gaussian coefficients of parameter sigma, truncated at 6 sigma.
func (s *Sampler) GaussianPoly(out *Poly, level int) {
	s.setSigned(out, s.gaussian(), level)
}

// GaussianRows is GaussianPoly over the listed residue rows only: one
// Gaussian polynomial, written into each of them.
func (s *Sampler) GaussianRows(out *Poly, rows []int) {
	vals := s.gaussian()
	for _, i := range rows {
		s.setSignedRow(out.Coeffs[i], i, vals)
	}
}

// gaussian draws the N signed coefficients of one Gaussian polynomial.
func (s *Sampler) gaussian() []int8 {
	n := s.r.N
	vals := make([]int8, n)
	for j := 0; j < n; j += 2 {
		x, y := s.normalPair()
		vals[j] = clampInt8(math.Round(x * s.sigma))
		if j+1 < n {
			vals[j+1] = clampInt8(math.Round(y * s.sigma))
		}
	}
	return vals
}

// normalPair returns two independent standard normal samples (Box-Muller),
// each truncated to |v| <= 6.
func (s *Sampler) normalPair() (float64, float64) {
	for {
		u1 := float64(s.prng.Uint64()>>11) / (1 << 53)
		u2 := float64(s.prng.Uint64()>>11) / (1 << 53)
		if u1 == 0 {
			continue
		}
		r := math.Sqrt(-2 * math.Log(u1))
		x := r * math.Cos(2*math.Pi*u2)
		y := r * math.Sin(2*math.Pi*u2)
		if math.Abs(x) <= 6 && math.Abs(y) <= 6 {
			return x, y
		}
	}
}

func clampInt8(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int8(v)
}

// setSigned writes small signed coefficients into every residue row of out.
func (s *Sampler) setSigned(out *Poly, vals []int8, level int) {
	for i := 0; i <= level; i++ {
		s.setSignedRow(out.Coeffs[i], i, vals)
	}
}

// setSignedRow writes small signed coefficients into row, the residues
// modulo the ring's i-th prime.
func (s *Sampler) setSignedRow(row []uint64, i int, vals []int8) {
	q := s.r.Moduli[i].Q
	for j, v := range vals {
		// v, or q+v for negative v: adding q under the sign mask wraps the
		// two's-complement value back into [0, q) without a branch.
		x := int64(v)
		row[j] = uint64(x) + q&uint64(x>>63)
	}
}
