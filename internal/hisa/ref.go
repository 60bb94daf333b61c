package hisa

import (
	"fmt"
	"math/big"
	"sync/atomic"
)

// RefBackend executes HISA instructions on plaintext vectors. It is the
// functional oracle: kernels validated against it are known to compute the
// right values, independent of any cryptographic concern. Scale bookkeeping
// mirrors a rescaling scheme with arbitrary divisors so the kernels'
// rescale protocol is still exercised. The backend holds no mutable state,
// so it is trivially safe for concurrent op execution.
//
// Slots model the complex coordinates of the CKKS canonical embedding: a
// ciphertext carries a real component vector plus an optional imaginary
// component (nil for purely real data, which keeps the real-only paths
// bit-identical to the pre-complex backend). Ciphertext-ciphertext
// multiplication is the complex slot product, exactly as in the scheme.
type RefBackend struct {
	slots int
	// workers bounds the goroutines one RotSum spreads across
	// (SetIntraOpWorkers).
	workers atomic.Int32
}

// NewRefBackend creates a reference backend with the given SIMD width.
func NewRefBackend(slots int) *RefBackend {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("hisa: slot count %d must be a positive power of two", slots))
	}
	return &RefBackend{slots: slots}
}

type refCT struct {
	vals  []float64
	ivals []float64 // imaginary slot components; nil when purely real
	scale float64
}

type refPT struct {
	vals  []float64
	ivals []float64
	scale float64
}

func (b *RefBackend) Name() string { return "ref" }
func (b *RefBackend) Slots() int   { return b.slots }

func (b *RefBackend) ct(c Ciphertext) *refCT {
	v, ok := c.(*refCT)
	if !ok {
		panic(fmt.Sprintf("hisa: foreign ciphertext %T passed to ref backend", c))
	}
	return v
}

func (b *RefBackend) pt(p Plaintext) *refPT {
	v, ok := p.(*refPT)
	if !ok {
		panic(fmt.Sprintf("hisa: foreign plaintext %T passed to ref backend", p))
	}
	return v
}

// imOrNil returns a copy of iv, or nil when iv is nil.
func imOrNil(iv []float64) []float64 {
	if iv == nil {
		return nil
	}
	return append([]float64(nil), iv...)
}

// imAt reads component i of an optional imaginary vector.
func imAt(iv []float64, i int) float64 {
	if iv == nil {
		return 0
	}
	return iv[i]
}

func (b *RefBackend) Encode(m []float64, f float64) Plaintext {
	if len(m) > b.slots {
		panic(fmt.Sprintf("hisa: %d values exceed %d slots", len(m), b.slots))
	}
	vals := make([]float64, b.slots)
	copy(vals, m)
	return &refPT{vals: vals, scale: f}
}

// EncodeRuns is Encode of the runs' expansion, filling the one slot vector
// the plaintext keeps.
func (b *RefBackend) EncodeRuns(runs func() []Run, f float64) Plaintext {
	return &refPT{vals: Expand(built(runs), b.slots), scale: f}
}

// AddPlainCRuns is AddPlainC of the expanded constant.
func (b *RefBackend) AddPlainCRuns(c Ciphertext, re, im func() []Run) Ciphertext {
	return b.AddPlainC(c, ExpandC(built(re), built(im), b.slots))
}

func (b *RefBackend) Decode(p Plaintext) []float64 {
	return append([]float64(nil), b.pt(p).vals...)
}

func (b *RefBackend) Encrypt(p Plaintext) Ciphertext {
	pp := b.pt(p)
	return &refCT{vals: append([]float64(nil), pp.vals...), ivals: imOrNil(pp.ivals), scale: pp.scale}
}

func (b *RefBackend) Decrypt(c Ciphertext) Plaintext {
	cc := b.ct(c)
	return &refPT{vals: append([]float64(nil), cc.vals...), ivals: imOrNil(cc.ivals), scale: cc.scale}
}

func (b *RefBackend) Copy(c Ciphertext) Ciphertext {
	cc := b.ct(c)
	return &refCT{vals: append([]float64(nil), cc.vals...), ivals: imOrNil(cc.ivals), scale: cc.scale}
}

func (b *RefBackend) Free(any) {}

func (b *RefBackend) RotLeft(c Ciphertext, x int) Ciphertext {
	cc := b.ct(c)
	n := b.slots
	x = ((x % n) + n) % n
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = cc.vals[(i+x)%n]
	}
	var ivals []float64
	if cc.ivals != nil {
		ivals = make([]float64, n)
		for i := 0; i < n; i++ {
			ivals[i] = cc.ivals[(i+x)%n]
		}
	}
	return &refCT{vals: vals, ivals: ivals, scale: cc.scale}
}

func (b *RefBackend) RotRight(c Ciphertext, x int) Ciphertext { return b.RotLeft(c, -x) }

// zipCT combines two ciphertexts componentwise (addition/subtraction).
func (b *RefBackend) zipCT(c, c2 Ciphertext, op func(a, b float64) float64) Ciphertext {
	x, y := b.ct(c), b.ct(c2)
	vals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = op(x.vals[i], y.vals[i])
	}
	var ivals []float64
	if x.ivals != nil || y.ivals != nil {
		ivals = make([]float64, b.slots)
		for i := range ivals {
			ivals[i] = op(imAt(x.ivals, i), imAt(y.ivals, i))
		}
	}
	return &refCT{vals: vals, ivals: ivals, scale: x.scale}
}

func (b *RefBackend) Add(c, c2 Ciphertext) Ciphertext {
	return b.zipCT(c, c2, func(a, bb float64) float64 { return a + bb })
}

func (b *RefBackend) Sub(c, c2 Ciphertext) Ciphertext {
	return b.zipCT(c, c2, func(a, bb float64) float64 { return a - bb })
}

func (b *RefBackend) Mul(c, c2 Ciphertext) Ciphertext {
	x, y := b.ct(c), b.ct(c2)
	vals := make([]float64, b.slots)
	if x.ivals == nil && y.ivals == nil {
		for i := range vals {
			vals[i] = x.vals[i] * y.vals[i]
		}
		return &refCT{vals: vals, scale: x.scale * y.scale}
	}
	// Complex slot product: (a+bi)(c+di) = (ac-bd) + (ad+bc)i.
	ivals := make([]float64, b.slots)
	for i := range vals {
		a, bi := x.vals[i], imAt(x.ivals, i)
		cr, di := y.vals[i], imAt(y.ivals, i)
		vals[i] = a*cr - bi*di
		ivals[i] = a*di + bi*cr
	}
	return &refCT{vals: vals, ivals: ivals, scale: x.scale * y.scale}
}

// MulNoRelin is Mul: the oracle's products are never degree 2.
func (b *RefBackend) MulNoRelin(c, c2 Ciphertext) Ciphertext { return b.Mul(c, c2) }

// Relinearize is the identity.
func (b *RefBackend) Relinearize(c Ciphertext) Ciphertext { return c }

// RelinearizeRescale is Rescale.
func (b *RefBackend) RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext {
	return b.Rescale(c, x)
}

// RotSum is the unfused sequence, its rotations and sums spread across the
// intra-instruction workers.
func (b *RefBackend) RotSum(srcs []Ciphertext, sums [][]Term, divide func(Ciphertext) *big.Int) []Ciphertext {
	return rescaleEach(b, rotSumUnfused(b, srcs, sums, int(b.workers.Load())), divide)
}

// SetIntraOpWorkers bounds the goroutines one RotSum spreads its rotations
// and sums across; 1 is serial, and the result does not depend on it.
func (b *RefBackend) SetIntraOpWorkers(n int) { b.workers.Store(int32(n)) }

func (b *RefBackend) AddPlain(c Ciphertext, p Plaintext) Ciphertext {
	x, y := b.ct(c), b.pt(p)
	vals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = x.vals[i] + y.vals[i]
	}
	var ivals []float64
	if x.ivals != nil || y.ivals != nil {
		ivals = make([]float64, b.slots)
		for i := range ivals {
			ivals[i] = imAt(x.ivals, i) + imAt(y.ivals, i)
		}
	}
	return &refCT{vals: vals, ivals: ivals, scale: x.scale}
}

func (b *RefBackend) SubPlain(c Ciphertext, p Plaintext) Ciphertext {
	x, y := b.ct(c), b.pt(p)
	vals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = x.vals[i] - y.vals[i]
	}
	var ivals []float64
	if x.ivals != nil || y.ivals != nil {
		ivals = make([]float64, b.slots)
		for i := range ivals {
			ivals[i] = imAt(x.ivals, i) - imAt(y.ivals, i)
		}
	}
	return &refCT{vals: vals, ivals: ivals, scale: x.scale}
}

func (b *RefBackend) MulPlain(c Ciphertext, p Plaintext) Ciphertext {
	x, y := b.ct(c), b.pt(p)
	vals := make([]float64, b.slots)
	if x.ivals == nil && y.ivals == nil {
		for i := range vals {
			vals[i] = x.vals[i] * y.vals[i]
		}
		return &refCT{vals: vals, scale: x.scale * y.scale}
	}
	ivals := make([]float64, b.slots)
	for i := range vals {
		a, bi := x.vals[i], imAt(x.ivals, i)
		cr, di := y.vals[i], imAt(y.ivals, i)
		vals[i] = a*cr - bi*di
		ivals[i] = a*di + bi*cr
	}
	return &refCT{vals: vals, ivals: ivals, scale: x.scale * y.scale}
}

func (b *RefBackend) AddScalar(c Ciphertext, x float64) Ciphertext {
	cc := b.ct(c)
	vals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = cc.vals[i] + x
	}
	return &refCT{vals: vals, ivals: imOrNil(cc.ivals), scale: cc.scale}
}

func (b *RefBackend) SubScalar(c Ciphertext, x float64) Ciphertext {
	return b.AddScalar(c, -x)
}

func (b *RefBackend) MulScalar(c Ciphertext, x float64, f float64) Ciphertext {
	cc := b.ct(c)
	vals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = cc.vals[i] * x
	}
	var ivals []float64
	if cc.ivals != nil {
		ivals = make([]float64, b.slots)
		for i := range ivals {
			ivals[i] = cc.ivals[i] * x
		}
	}
	return &refCT{vals: vals, ivals: ivals, scale: cc.scale * f}
}

func (b *RefBackend) Rescale(c Ciphertext, x *big.Int) Ciphertext {
	cc := b.ct(c)
	d, _ := new(big.Float).SetInt(x).Float64()
	return &refCT{vals: append([]float64(nil), cc.vals...), ivals: imOrNil(cc.ivals), scale: cc.scale / d}
}

func (b *RefBackend) MaxRescale(c Ciphertext, ub *big.Int) *big.Int {
	if ub.Sign() <= 0 {
		return big.NewInt(1)
	}
	// Mirror the CKKS restriction: divisors are powers of two.
	d := new(big.Int).Set(ub)
	bits := d.BitLen() - 1
	return new(big.Int).Lsh(big.NewInt(1), uint(bits))
}

func (b *RefBackend) Scale(c Ciphertext) float64 { return b.ct(c).scale }

// refFreshBudget is the reference backend's unbounded level budget: the
// functional oracle never exhausts, so any ciphertext is "fresh".
const refFreshBudget = 1 << 30

// BootstrapCapable: the oracle backend refreshes trivially (bootstrap is the
// exact identity), so lockstep comparisons against bootstrap-placed circuits
// need no special-casing.
func (b *RefBackend) BootstrapCapable() bool { return true }

// Bootstrap is the exact identity on the oracle backend.
func (b *RefBackend) Bootstrap(c Ciphertext) Ciphertext { return b.Copy(c) }

// BudgetOf: the oracle has no modulus, so the budget is effectively infinite.
func (b *RefBackend) BudgetOf(Ciphertext) int { return refFreshBudget }

// FreshBudget matches BudgetOf: refreshing never changes anything.
func (b *RefBackend) FreshBudget() int { return refFreshBudget }

// DropToFresh is the identity on the oracle backend.
func (b *RefBackend) DropToFresh(c Ciphertext) Ciphertext { return b.Copy(c) }

// Conjugate negates the imaginary slot components.
func (b *RefBackend) Conjugate(c Ciphertext) Ciphertext {
	cc := b.ct(c)
	out := &refCT{vals: append([]float64(nil), cc.vals...), scale: cc.scale}
	if cc.ivals != nil {
		out.ivals = make([]float64, b.slots)
		for i := range out.ivals {
			out.ivals[i] = -cc.ivals[i]
		}
	}
	return out
}

// EncryptC encrypts a complex slot vector at scale f.
func (b *RefBackend) EncryptC(m []complex128, f float64) Ciphertext {
	if len(m) > b.slots {
		panic(fmt.Sprintf("hisa: %d values exceed %d slots", len(m), b.slots))
	}
	vals := make([]float64, b.slots)
	ivals := make([]float64, b.slots)
	for i, z := range m {
		vals[i] = real(z)
		ivals[i] = imag(z)
	}
	return &refCT{vals: vals, ivals: ivals, scale: f}
}

// DecryptC decrypts both slot components.
func (b *RefBackend) DecryptC(c Ciphertext) []complex128 {
	cc := b.ct(c)
	out := make([]complex128, b.slots)
	for i := range out {
		out[i] = complex(cc.vals[i], imAt(cc.ivals, i))
	}
	return out
}

// AddPlainC adds a complex vector encoded at the ciphertext's scale.
func (b *RefBackend) AddPlainC(c Ciphertext, m []complex128) Ciphertext {
	cc := b.ct(c)
	if len(m) > b.slots {
		panic(fmt.Sprintf("hisa: %d values exceed %d slots", len(m), b.slots))
	}
	vals := make([]float64, b.slots)
	ivals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = cc.vals[i]
		ivals[i] = imAt(cc.ivals, i)
	}
	for i, z := range m {
		vals[i] += real(z)
		ivals[i] += imag(z)
	}
	return &refCT{vals: vals, ivals: ivals, scale: cc.scale}
}

// MulScalarC multiplies every slot by the complex constant x at scale f.
func (b *RefBackend) MulScalarC(c Ciphertext, x complex128, f float64) Ciphertext {
	cc := b.ct(c)
	vals := make([]float64, b.slots)
	ivals := make([]float64, b.slots)
	xr, xi := real(x), imag(x)
	for i := range vals {
		a, bi := cc.vals[i], imAt(cc.ivals, i)
		vals[i] = a*xr - bi*xi
		ivals[i] = a*xi + bi*xr
	}
	return &refCT{vals: vals, ivals: ivals, scale: cc.scale * f}
}
