package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"
	"sync"

	"chet/internal/ring"
)

// Plaintext is an encoded (unencrypted) message: a ring element carrying its
// level and fixed-point scale.
type Plaintext struct {
	Value *ring.Poly // NTT domain
	Scale float64
	Lvl   int

	// special caches the plaintext's rows modulo the special primes, which
	// a RotSum weight needs and an encoding does not carry (specialRows),
	// computed once however many sums use the plaintext at once.
	specialOnce sync.Once
	special     [][]uint64
}

// Level returns the plaintext level.
func (p *Plaintext) Level() int { return p.Lvl }

// Encoder maps complex slot vectors to and from ring elements via the
// canonical embedding (the "special FFT" over the group generated by 5).
type Encoder struct {
	params   *Parameters
	m        int          // 2N, order of the root of unity
	rotGroup []int        // 5^j mod 2N for j < slots
	roots    []complex128 // exp(2*pi*i*j/M) for j < M
}

// NewEncoder builds the FFT tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	slots := params.Slots()
	m := 2 * params.N()
	rotGroup := make([]int, slots)
	five := 1
	for j := 0; j < slots; j++ {
		rotGroup[j] = five
		five = five * 5 % m
	}
	roots := make([]complex128, m)
	for j := 0; j < m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		roots[j] = cmplx.Exp(complex(0, angle))
	}
	return &Encoder{params: params, m: m, rotGroup: rotGroup, roots: roots}
}

func bitReverseInPlace(vals []complex128) {
	n := len(vals)
	logN := bits.Len(uint(n)) - 1
	shift := 64 - uint(logN)
	for i := range vals {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// embed evaluates the polynomial-coefficient view into slot values in place
// (coefficient -> slot direction, used by Decode).
func (e *Encoder) embed(vals []complex128) {
	size := len(vals)
	bitReverseInPlace(vals)
	for length := 2; length <= size; length <<= 1 {
		for i := 0; i < size; i += length {
			lenh := length >> 1
			lenq := length << 2
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * (e.m / lenq)
				u := vals[i+j]
				v := vals[i+j+lenh] * e.roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// embedInv is the inverse of embed (slot -> coefficient direction, used by
// Encode).
func (e *Encoder) embedInv(vals []complex128) {
	size := len(vals)
	for length := size; length >= 2; length >>= 1 {
		for i := 0; i < size; i += length {
			lenh := length >> 1
			lenq := length << 2
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * (e.m / lenq)
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseInPlace(vals)
	inv := complex(1/float64(size), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// Embed applies the canonical-embedding FFT (coefficient-pair vector to
// slot values, the linear map U used by Decode) to a copy of v, whose
// length must be Slots(). Bootstrapping builds its CoeffToSlot/SlotToCoeff
// matrices from columns of this exact transform, so the homomorphic DFT and
// the encoder can never disagree.
func (e *Encoder) Embed(v []complex128) []complex128 {
	if len(v) != e.params.Slots() {
		panic(fmt.Sprintf("ckks: Embed expects %d values, got %d", e.params.Slots(), len(v)))
	}
	out := make([]complex128, len(v))
	copy(out, v)
	e.embed(out)
	return out
}

// EmbedInv applies the inverse canonical-embedding FFT (U^{-1}, the slot to
// coefficient-pair direction used by Encode) to a copy of v.
func (e *Encoder) EmbedInv(v []complex128) []complex128 {
	if len(v) != e.params.Slots() {
		panic(fmt.Sprintf("ckks: EmbedInv expects %d values, got %d", e.params.Slots(), len(v)))
	}
	out := make([]complex128, len(v))
	copy(out, v)
	e.embedInv(out)
	return out
}

// EncodeComplex encodes up to Slots() complex values at the given level and
// scale. Shorter inputs are zero-padded.
func (e *Encoder) EncodeComplex(values []complex128, scale float64, level int) *Plaintext {
	slots := e.params.Slots()
	if len(values) > slots {
		panic(fmt.Sprintf("ckks: %d values exceed %d slots", len(values), slots))
	}
	vals := make([]complex128, slots)
	copy(vals, values)
	e.embedInv(vals)

	n := e.params.N()
	gap := (n / 2) / slots
	r := e.params.Ring()
	pt := r.NewPoly(level)

	// Scaled coefficients can exceed 2^62; route large magnitudes through
	// big.Int so no precision is silently lost.
	setCoeff := func(idx int, v float64) {
		x := v * scale
		if math.Abs(x) < (1 << 62) {
			c := int64(math.Round(x))
			for i := 0; i <= level; i++ {
				q := r.Moduli[i].Q
				if c >= 0 {
					pt.Coeffs[i][idx] = uint64(c) % q
				} else {
					pt.Coeffs[i][idx] = q - (uint64(-c) % q)
					if pt.Coeffs[i][idx] == q {
						pt.Coeffs[i][idx] = 0
					}
				}
			}
			return
		}
		bf := new(big.Float).SetPrec(128).SetFloat64(v)
		bf.Mul(bf, new(big.Float).SetPrec(128).SetFloat64(scale))
		bi, _ := bf.Int(nil)
		for i := 0; i <= level; i++ {
			q := new(big.Int).SetUint64(r.Moduli[i].Q)
			m := new(big.Int).Mod(bi, q)
			pt.Coeffs[i][idx] = m.Uint64()
		}
	}

	for i := 0; i < slots; i++ {
		setCoeff(i*gap, real(vals[i]))
		setCoeff(i*gap+n/2, imag(vals[i]))
	}

	r.NTT(pt, level)
	return &Plaintext{Value: pt, Scale: scale, Lvl: level}
}

// Encode encodes real values (the common case for neural-network tensors).
func (e *Encoder) Encode(values []float64, scale float64, level int) *Plaintext {
	cv := make([]complex128, len(values))
	for i, v := range values {
		cv[i] = complex(v, 0)
	}
	return e.EncodeComplex(cv, scale, level)
}

// DecodeComplex decodes a plaintext into its complex slot values.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	r := e.params.Ring()
	level := pt.Lvl
	coef := pt.Value.CopyNew()
	r.InvNTT(coef, level)
	coeffs := r.PolyToBigintCentered(coef, level)

	n := e.params.N()
	slots := e.params.Slots()
	gap := (n / 2) / slots

	scaleInv := 1.0 / pt.Scale
	toFloat := func(idx int) float64 {
		f, _ := new(big.Float).SetInt(coeffs[idx]).Float64()
		return f * scaleInv
	}

	vals := make([]complex128, slots)
	for i := 0; i < slots; i++ {
		vals[i] = complex(toFloat(i*gap), toFloat(i*gap+n/2))
	}
	e.embed(vals)
	return vals
}

// Decode decodes a plaintext into real slot values, discarding imaginary
// parts (which carry only approximation noise for real inputs).
func (e *Encoder) Decode(pt *Plaintext) []float64 {
	cv := e.DecodeComplex(pt)
	out := make([]float64, len(cv))
	for i, v := range cv {
		out[i] = real(v)
	}
	return out
}
