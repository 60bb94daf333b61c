package hisa

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"chet/internal/ring"
)

// SimParams configures the HEAAN-style CKKS mock backend.
type SimParams struct {
	LogN int // ring degree 2^LogN; slots are N/2
	LogQ int // total ciphertext modulus bits (power-of-two modulus)
	// Rotations optionally restricts single-step rotations to this set;
	// nil means every rotation has a key (the rotation-keys pass decides).
	Rotations map[int]bool
	// Seed makes the injected approximation noise reproducible.
	Seed uint64
	// NoNoise suppresses noise injection at decryption while still tracking
	// the noise estimate; used by the profile-guided scale search, which
	// checks the deterministic value plus a 6-sigma bound instead of
	// sampling.
	NoNoise bool
	// Bootstrap enables the mock bootstrap capability; nil leaves the
	// backend incapable (BootstrapCapable reports false).
	Bootstrap *SimBootstrap
}

// SimBootstrap configures the mock bootstrap: the modulus-budget reset and
// approximation noise of a real CKKS bootstrap, without the lattice
// pipeline. Level accounting mirrors the RNS chain layout so the compiler's
// placement model transfers: BudgetOf counts how many PrimeBits rescales fit
// above the Q0Bits base.
type SimBootstrap struct {
	// FreshLogQ is the modulus budget (bits) a bootstrapped ciphertext is
	// refreshed to; 0 selects the full LogQ.
	FreshLogQ float64
	// Noise is the per-slot message-space error std one bootstrap adds (the
	// real pipeline's EvalMod residual); 0 selects 1e-4, the measured error
	// of internal/boot's default spec.
	Noise float64
	// PrimeBits and Q0Bits lay out the mock chain for level accounting;
	// zeros select the boot package defaults (40 and 49).
	PrimeBits int
	Q0Bits    int
}

// withDefaults fills zero fields with the boot-package defaults.
func (s SimBootstrap) withDefaults(logQ int) SimBootstrap {
	if s.FreshLogQ == 0 {
		s.FreshLogQ = float64(logQ)
	}
	if s.Noise == 0 {
		s.Noise = 1e-4
	}
	if s.PrimeBits == 0 {
		s.PrimeBits = 40
	}
	if s.Q0Bits == 0 {
		s.Q0Bits = 49
	}
	return s
}

// SimBackend realizes the CKKS scheme of HEAAN v1.0 as a high-fidelity mock:
// slot values are computed exactly while scale, power-of-two modulus
// consumption, and approximation noise are tracked with the scheme's real
// bookkeeping rules. Decryption injects the accumulated Gaussian noise, so
// precision experiments (and CHET's profile-guided scale selection) observe
// CKKS-like behaviour. See DESIGN.md for the substitution rationale.
// Every op returns fresh slot vectors, except that a sum of rotations
// (RotSum) is computed in one accumulator per output, bit-identical to the
// unfused sequence without its rotated copies, products and partial sums.
type SimBackend struct {
	params SimParams
	slots  int

	// prngMu serializes draws from the stateful noise PRNG (Decrypt is the
	// only operation that samples); everything else is functional, making
	// the backend safe for concurrent op execution.
	prngMu sync.Mutex
	prng   ring.PRNG

	// sigma is the error-distribution parameter of the mimicked scheme.
	sigma float64

	// workers bounds the goroutines one RotSum spreads across
	// (SetIntraOpWorkers).
	workers atomic.Int32
}

// NewSimBackend creates the mock HEAAN backend.
func NewSimBackend(params SimParams) *SimBackend {
	if params.LogN < 2 || params.LogN > 17 {
		panic(fmt.Sprintf("hisa: sim LogN %d out of range", params.LogN))
	}
	if params.LogQ <= 0 {
		panic("hisa: sim LogQ must be positive")
	}
	seed := params.Seed
	if seed == 0 {
		seed = 0x5EED
	}
	if params.Bootstrap != nil {
		bs := params.Bootstrap.withDefaults(params.LogQ)
		if bs.FreshLogQ > float64(params.LogQ) {
			panic(fmt.Sprintf("hisa: sim bootstrap FreshLogQ %.0f exceeds LogQ %d", bs.FreshLogQ, params.LogQ))
		}
		params.Bootstrap = &bs
	}
	return &SimBackend{
		params: params,
		slots:  1 << uint(params.LogN-1),
		prng:   ring.NewTestPRNG(seed),
		sigma:  ring.DefaultSigma,
	}
}

type simCT struct {
	vals  []float64
	ivals []float64 // imaginary slot components; nil when purely real
	scale float64
	logQ  float64   // remaining modulus bits
	noise []float64 // per-slot approximation noise (std, message units)
}

// mag returns the slot magnitude |vals[i] + ivals[i]*i|. Purely real
// ciphertexts take the math.Abs path so pre-complex behaviour (including the
// exact floating-point results of the noise model) is preserved bit-for-bit.
func (c *simCT) mag(i int) float64 {
	if c.ivals == nil {
		return math.Abs(c.vals[i])
	}
	return hypot(c.vals[i], c.ivals[i])
}

// hypot is √(a² + b²) for the noise model's magnitudes, which are far from
// float64's range limits: math.Hypot's scaling guards cost the mock a third
// of its time.
func hypot(a, b float64) float64 { return math.Sqrt(a*a + b*b) }

// hypotInto sets dst[i] = hypot(dst[i], x[i]).
func hypotInto(dst, x []float64) {
	for i := range dst {
		dst[i] = hypot(dst[i], x[i])
	}
}

// hypotConst sets dst[i] = hypot(dst[i], c).
func hypotConst(dst []float64, c float64) {
	for i := range dst {
		dst[i] = hypot(dst[i], c)
	}
}

func constVec(n int, c float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = c
	}
	return v
}

type simPT struct {
	vals  []float64
	ivals []float64
	scale float64
}

func (b *SimBackend) Name() string { return "ckks-sim" }
func (b *SimBackend) Slots() int   { return b.slots }

// LogQ returns the configured total modulus bits.
func (b *SimBackend) LogQ() int { return b.params.LogQ }

func (b *SimBackend) n() float64 { return float64(int(1) << uint(b.params.LogN)) }

// encodingNoise is the slot-domain std of the rounding error introduced by
// encoding at scale f.
func (b *SimBackend) encodingNoise(f float64) float64 {
	return math.Sqrt(b.n()) / (2 * f)
}

// freshNoise is the slot-domain std of fresh encryption noise at scale f.
func (b *SimBackend) freshNoise(f float64) float64 {
	return b.sigma * math.Sqrt(2*b.n()) / f
}

func (b *SimBackend) ct(c Ciphertext) *simCT {
	v, ok := c.(*simCT)
	if !ok {
		panic(fmt.Sprintf("hisa: foreign ciphertext %T passed to sim backend", c))
	}
	return v
}

func (b *SimBackend) pt(p Plaintext) *simPT {
	v, ok := p.(*simPT)
	if !ok {
		panic(fmt.Sprintf("hisa: foreign plaintext %T passed to sim backend", p))
	}
	return v
}

// checkCapacity panics if the scaled message no longer fits the remaining
// modulus — the "corrupted and unrecoverable" overflow the paper's parameter
// selection exists to prevent.
func (b *SimBackend) checkCapacity(c *simCT) {
	peak := 1.0
	for i := range c.vals {
		if m := c.mag(i) + 6*c.noise[i]; m > peak {
			peak = m
		}
	}
	checkFits(peak, c.scale, c.logQ)
}

// checkFits is checkCapacity's verdict on a ciphertext at scale and logQ
// whose largest slot magnitude plus six noise deviations is peak (at least
// 1).
func checkFits(peak, scale, logQ float64) {
	need := math.Log2(scale) + math.Log2(peak+1) + 1
	if need > logQ {
		panic(fmt.Sprintf(
			"hisa: ckks-sim modulus exhausted: message needs %.1f bits but only %.1f remain (scale 2^%.1f); increase Q",
			need, logQ, math.Log2(scale)))
	}
}

func (b *SimBackend) Encode(m []float64, f float64) Plaintext {
	if len(m) > b.slots {
		panic(fmt.Sprintf("hisa: %d values exceed %d slots", len(m), b.slots))
	}
	vals := make([]float64, b.slots)
	copy(vals, m)
	return &simPT{vals: vals, scale: f}
}

// EncodeRuns is Encode of the runs' expansion, filling the one slot vector
// the plaintext keeps.
func (b *SimBackend) EncodeRuns(runs func() []Run, f float64) Plaintext {
	return &simPT{vals: Expand(built(runs), b.slots), scale: f}
}

// AddPlainCRuns is AddPlainC of the expanded constant.
func (b *SimBackend) AddPlainCRuns(c Ciphertext, re, im func() []Run) Ciphertext {
	return b.AddPlainC(c, ExpandC(built(re), built(im), b.slots))
}

func (b *SimBackend) Decode(p Plaintext) []float64 {
	return append([]float64(nil), b.pt(p).vals...)
}

func (b *SimBackend) Encrypt(p Plaintext) Ciphertext {
	pp := b.pt(p)
	c := &simCT{
		vals:  append([]float64(nil), pp.vals...),
		scale: pp.scale,
		logQ:  float64(b.params.LogQ),
		noise: constVec(b.slots, b.freshNoise(pp.scale)+b.encodingNoise(pp.scale)),
	}
	b.checkCapacity(c)
	return c
}

// Decrypt injects the accumulated approximation noise into the message, the
// observable effect of CKKS's approximate arithmetic.
func (b *SimBackend) Decrypt(c Ciphertext) Plaintext {
	cc := b.ct(c)
	vals := make([]float64, len(cc.vals))
	if b.params.NoNoise {
		copy(vals, cc.vals)
		return &simPT{vals: vals, scale: cc.scale}
	}
	b.prngMu.Lock()
	defer b.prngMu.Unlock()
	for i, v := range cc.vals {
		vals[i] = v + b.gauss()*cc.noise[i]
	}
	return &simPT{vals: vals, scale: cc.scale}
}

// gauss returns a standard normal sample.
func (b *SimBackend) gauss() float64 {
	for {
		u1 := float64(b.prng.Uint64()>>11) / (1 << 53)
		u2 := float64(b.prng.Uint64()>>11) / (1 << 53)
		if u1 == 0 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

func (b *SimBackend) Copy(c Ciphertext) Ciphertext {
	cc := b.ct(c)
	out := *cc
	out.vals = append([]float64(nil), cc.vals...)
	out.ivals = imOrNil(cc.ivals)
	out.noise = append([]float64(nil), cc.noise...)
	return &out
}

func (b *SimBackend) Free(any) {}

// keySwitchNoise is the slot-domain noise added by one key-switching
// operation (rotation or relinearization) at the ciphertext's scale.
func (b *SimBackend) keySwitchNoise(scale float64) float64 {
	return b.sigma * math.Sqrt(2*b.n()) / scale
}

func (b *SimBackend) RotLeft(c Ciphertext, x int) Ciphertext {
	cc := b.ct(c)
	n := b.slots
	x = ((x % n) + n) % n
	out := &simCT{vals: rotated(cc.vals, x), scale: cc.scale, logQ: cc.logQ, noise: rotated(cc.noise, x)}
	if cc.ivals != nil {
		out.ivals = rotated(cc.ivals, x)
	}
	for range RotationSteps(x, n, b.rotationAvailable()) {
		hypotConst(out.noise, b.keySwitchNoise(cc.scale))
	}
	return out
}

// rotated returns a fresh copy of v rotated left by k, 0 <= k < len(v).
func rotated(v []float64, k int) []float64 {
	out := make([]float64, len(v))
	copy(out, v[k:])
	copy(out[len(v)-k:], v[:k])
	return out
}

func (b *SimBackend) rotationAvailable() func(int) bool {
	if b.params.Rotations == nil {
		return nil
	}
	return func(k int) bool { return b.params.Rotations[k] }
}

func (b *SimBackend) RotRight(c Ciphertext, x int) Ciphertext { return b.RotLeft(c, -x) }

func (b *SimBackend) requireSameScale(s1, s2 float64, op string) {
	if math.Abs(s1-s2) > 1e-6*math.Max(s1, s2) {
		panic(fmt.Sprintf("hisa: scale mismatch in %s: %g vs %g", op, s1, s2))
	}
}

// zipIm combines the optional imaginary components of two operands, staying
// nil when both are purely real.
func zipIm(xi, yi []float64, n int, op func(a, b float64) float64) []float64 {
	if xi == nil && yi == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = op(imAt(xi, i), imAt(yi, i))
	}
	return out
}

func (b *SimBackend) Add(c, c2 Ciphertext) Ciphertext {
	x, y := b.ct(c), b.ct(c2)
	b.requireSameScale(x.scale, y.scale, "add")
	vals := make([]float64, b.slots)
	noise := make([]float64, b.slots)
	for i := range vals {
		vals[i] = x.vals[i] + y.vals[i]
		noise[i] = hypot(x.noise[i], y.noise[i])
	}
	ivals := zipIm(x.ivals, y.ivals, b.slots, func(a, bb float64) float64 { return a + bb })
	return &simCT{vals: vals, ivals: ivals, scale: x.scale, logQ: math.Min(x.logQ, y.logQ), noise: noise}
}

func (b *SimBackend) Sub(c, c2 Ciphertext) Ciphertext {
	x, y := b.ct(c), b.ct(c2)
	b.requireSameScale(x.scale, y.scale, "sub")
	vals := make([]float64, b.slots)
	noise := make([]float64, b.slots)
	for i := range vals {
		vals[i] = x.vals[i] - y.vals[i]
		noise[i] = hypot(x.noise[i], y.noise[i])
	}
	ivals := zipIm(x.ivals, y.ivals, b.slots, func(a, bb float64) float64 { return a - bb })
	return &simCT{vals: vals, ivals: ivals, scale: x.scale, logQ: math.Min(x.logQ, y.logQ), noise: noise}
}

func (b *SimBackend) AddPlain(c Ciphertext, p Plaintext) Ciphertext {
	x, y := b.ct(c), b.pt(p)
	b.requireSameScale(x.scale, y.scale, "addPlain")
	vals := make([]float64, b.slots)
	noise := append([]float64(nil), x.noise...)
	for i := range vals {
		vals[i] = x.vals[i] + y.vals[i]
	}
	hypotConst(noise, b.encodingNoise(y.scale))
	ivals := zipIm(x.ivals, y.ivals, b.slots, func(a, bb float64) float64 { return a + bb })
	return &simCT{vals: vals, ivals: ivals, scale: x.scale, logQ: x.logQ, noise: noise}
}

func (b *SimBackend) SubPlain(c Ciphertext, p Plaintext) Ciphertext {
	x, y := b.ct(c), b.pt(p)
	b.requireSameScale(x.scale, y.scale, "subPlain")
	vals := make([]float64, b.slots)
	noise := append([]float64(nil), x.noise...)
	for i := range vals {
		vals[i] = x.vals[i] - y.vals[i]
	}
	hypotConst(noise, b.encodingNoise(y.scale))
	ivals := zipIm(x.ivals, y.ivals, b.slots, func(a, bb float64) float64 { return a - bb })
	return &simCT{vals: vals, ivals: ivals, scale: x.scale, logQ: x.logQ, noise: noise}
}

func (b *SimBackend) AddScalar(c Ciphertext, s float64) Ciphertext {
	x := b.ct(c)
	vals := make([]float64, b.slots)
	noise := append([]float64(nil), x.noise...)
	for i := range vals {
		vals[i] = x.vals[i] + s
	}
	hypotConst(noise, 0.5/x.scale)
	return &simCT{vals: vals, ivals: imOrNil(x.ivals), scale: x.scale, logQ: x.logQ, noise: noise}
}

func (b *SimBackend) SubScalar(c Ciphertext, s float64) Ciphertext {
	return b.AddScalar(c, -s)
}

func (b *SimBackend) Mul(c, c2 Ciphertext) Ciphertext {
	x, y := b.ct(c), b.ct(c2)
	vals := make([]float64, b.slots)
	noise := make([]float64, b.slots)
	ks := b.keySwitchNoise(x.scale * y.scale)
	if x.ivals == nil && y.ivals == nil {
		for i := range vals {
			vals[i] = x.vals[i] * y.vals[i]
			noise[i] = hypot(
				hypot(x.noise[i]*math.Abs(y.vals[i]), y.noise[i]*math.Abs(x.vals[i])),
				hypot(x.noise[i]*y.noise[i], ks))
		}
		out := &simCT{vals: vals, scale: x.scale * y.scale, logQ: math.Min(x.logQ, y.logQ), noise: noise}
		b.checkCapacity(out)
		return out
	}
	// Complex slot product; noise bounds use slot magnitudes.
	ivals := make([]float64, b.slots)
	for i := range vals {
		a, bi := x.vals[i], imAt(x.ivals, i)
		cr, di := y.vals[i], imAt(y.ivals, i)
		vals[i] = a*cr - bi*di
		ivals[i] = a*di + bi*cr
		noise[i] = hypot(
			hypot(x.noise[i]*y.mag(i), y.noise[i]*x.mag(i)),
			hypot(x.noise[i]*y.noise[i], ks))
	}
	out := &simCT{vals: vals, ivals: ivals, scale: x.scale * y.scale, logQ: math.Min(x.logQ, y.logQ), noise: noise}
	b.checkCapacity(out)
	return out
}

// MulNoRelin is Mul: the mock charges the relinearization's key-switch
// noise to the product itself.
func (b *SimBackend) MulNoRelin(c, c2 Ciphertext) Ciphertext { return b.Mul(c, c2) }

// Relinearize is the identity.
func (b *SimBackend) Relinearize(c Ciphertext) Ciphertext { return c }

// RelinearizeRescale is Rescale.
func (b *SimBackend) RelinearizeRescale(c Ciphertext, x *big.Int) Ciphertext {
	return b.Rescale(c, x)
}

// RotSum computes each output in one accumulator of its own, allocated once:
// every term reads its source at the rotation's offset and is weighted and
// added slot by slot, with no rotated copy, product or partial sum
// allocated. Each slot goes through exactly the float operations RotLeft,
// MulPlain or MulScalar, and Add apply in RotSumUnfused, in the same order,
// so the outputs, every product's capacity check and every panic are the
// unfused sequence's. The outputs are spread across the intra-instruction
// workers; a divided output is rescaled in its own accumulator.
func (b *SimBackend) RotSum(srcs []Ciphertext, sums [][]Term, divide func(Ciphertext) *big.Int) []Ciphertext {
	outs := make([]Ciphertext, len(sums))
	Spread(int(b.workers.Load()), len(sums), func(o int) { outs[o] = b.sum(srcs, sums[o]) })
	if divide != nil {
		for _, c := range outs {
			if d := divide(c); d.Cmp(bigOne) != 0 {
				b.rescale(b.ct(c), d)
			}
		}
	}
	return outs
}

// sum computes one output of RotSum, term by term, into a fresh accumulator.
// A term's product is checked against the modulus after its pass, and its
// scale against the sum's, as MulPlain, MulScalar and Add check them.
func (b *SimBackend) sum(srcs []Ciphertext, terms []Term) *simCT {
	if len(terms) == 0 {
		panic("hisa: a sum of rotations with no terms")
	}
	n := b.slots
	acc := &simCT{vals: make([]float64, n), noise: make([]float64, n)}
	avail := b.rotationAvailable()
	for t, term := range terms {
		x := b.ct(srcs[term.Src])
		k := ((term.Rot % n) + n) % n
		steps := len(RotationSteps(k, n, avail))
		ks := b.keySwitchNoise(x.scale)
		// The product's scale and whether it has imaginary parts; a unit
		// weight's product is the rotation itself.
		var y *simPT
		var enc float64
		scale, s, f := x.scale, term.X, term.F
		switch {
		case term.Plain != nil:
			y = b.pt(term.Plain)
			enc = b.encodingNoise(y.scale)
			scale *= y.scale
		case f != 0:
			scale *= f
		}
		weighted := y != nil || f != 0
		cplx := x.ivals != nil || y != nil && y.ivals != nil
		if cplx && acc.ivals == nil {
			acc.ivals = make([]float64, n) // Add reads a real sum's imaginary parts as 0
		}
		peak := 1.0
		for i := 0; i < n; i++ {
			j := i + k
			if j >= n {
				j -= n
			}
			// The rotation: RotLeft's slot j and its key switches.
			a, e := x.vals[j], x.noise[j]
			for range steps {
				e = hypot(e, ks)
			}
			var bi float64
			if x.ivals != nil {
				bi = x.ivals[j]
			}
			// The product: v + i·iv with noise e, iv = 0 when it is real.
			// The conversions round each part as the unfused op's store
			// does, so no platform fuses it into the sum's addition.
			v, iv := a, bi
			switch {
			case y != nil && !cplx: // MulPlain, real
				yv := y.vals[i]
				v = float64(a * yv)
				e = hypot(e*math.Abs(yv), enc*(math.Abs(a)+e))
			case y != nil: // MulPlain, complex
				cr, di := y.vals[i], imAt(y.ivals, i)
				v, iv = float64(a*cr-bi*di), float64(a*di+bi*cr)
				e = hypot(e*hypot(cr, di), enc*(slotMag(a, bi, x.ivals != nil)+e))
			case f != 0: // MulScalar
				v = float64(a * s)
				if x.ivals != nil {
					iv = float64(bi * s)
				}
				e = hypot(e*math.Abs(s), (slotMag(a, bi, x.ivals != nil)+e)/(2*f))
			}
			if weighted {
				if m := slotMag(v, iv, cplx) + 6*e; m > peak {
					peak = m
				}
			}
			// The sum: the first term is the accumulator, later ones Add.
			if t == 0 {
				acc.vals[i], acc.noise[i] = v, e
				if cplx {
					acc.ivals[i] = iv
				}
				continue
			}
			acc.vals[i] += v
			acc.noise[i] = hypot(acc.noise[i], e)
			if acc.ivals != nil {
				acc.ivals[i] += iv
			}
		}
		if weighted {
			checkFits(peak, scale, x.logQ)
		}
		if t == 0 {
			acc.scale, acc.logQ = scale, x.logQ
			continue
		}
		b.requireSameScale(acc.scale, scale, "add")
		acc.logQ = math.Min(acc.logQ, x.logQ)
	}
	return acc
}

// slotMag is simCT.mag of a slot with real part a and imaginary part bi,
// complex or not.
func slotMag(a, bi float64, complex bool) float64 {
	if !complex {
		return math.Abs(a)
	}
	return hypot(a, bi)
}

// SetIntraOpWorkers bounds the goroutines one RotSum spreads its rotations
// and sums across; 1 is serial, and the result does not depend on it.
func (b *SimBackend) SetIntraOpWorkers(n int) { b.workers.Store(int32(n)) }

func (b *SimBackend) MulPlain(c Ciphertext, p Plaintext) Ciphertext {
	x, y := b.ct(c), b.pt(p)
	vals := make([]float64, b.slots)
	noise := make([]float64, b.slots)
	enc := b.encodingNoise(y.scale)
	if x.ivals == nil && y.ivals == nil {
		for i := range vals {
			vals[i] = x.vals[i] * y.vals[i]
			// Per-slot: the ciphertext's noise multiplies this slot's plaintext
			// entry, and the plaintext's encoding error multiplies this slot's
			// (noisy) value.
			noise[i] = hypot(x.noise[i]*math.Abs(y.vals[i]),
				enc*(math.Abs(x.vals[i])+x.noise[i]))
		}
		out := &simCT{vals: vals, scale: x.scale * y.scale, logQ: x.logQ, noise: noise}
		b.checkCapacity(out)
		return out
	}
	ivals := make([]float64, b.slots)
	for i := range vals {
		a, bi := x.vals[i], imAt(x.ivals, i)
		cr, di := y.vals[i], imAt(y.ivals, i)
		vals[i] = a*cr - bi*di
		ivals[i] = a*di + bi*cr
		ymag := hypot(cr, di)
		noise[i] = hypot(x.noise[i]*ymag, enc*(x.mag(i)+x.noise[i]))
	}
	out := &simCT{vals: vals, ivals: ivals, scale: x.scale * y.scale, logQ: x.logQ, noise: noise}
	b.checkCapacity(out)
	return out
}

func (b *SimBackend) MulScalar(c Ciphertext, s float64, f float64) Ciphertext {
	x := b.ct(c)
	vals := make([]float64, b.slots)
	for i := range vals {
		vals[i] = x.vals[i] * s
	}
	// A scalar constant encodes with all slots equal, whose encoding noise
	// is smaller than a full plaintext's (footnote 3 in the paper).
	noise := make([]float64, b.slots)
	for i := range noise {
		noise[i] = hypot(x.noise[i]*math.Abs(s), (x.mag(i)+x.noise[i])/(2*f))
	}
	var ivals []float64
	if x.ivals != nil {
		ivals = make([]float64, b.slots)
		for i := range ivals {
			ivals[i] = x.ivals[i] * s
		}
	}
	out := &simCT{vals: vals, ivals: ivals, scale: x.scale * f, logQ: x.logQ, noise: noise}
	b.checkCapacity(out)
	return out
}

func (b *SimBackend) Rescale(c Ciphertext, x *big.Int) Ciphertext {
	out := b.ct(b.Copy(c))
	b.rescale(out, x)
	return out
}

// rescale divides c by x in place.
func (b *SimBackend) rescale(c *simCT, x *big.Int) {
	if x.BitLen() > 1024 {
		panic("hisa: sim rescale divisor out of range")
	}
	d, _ := new(big.Float).SetInt(x).Float64()
	if d < 1 {
		panic("hisa: sim rescale divisor < 1")
	}
	bitsUsed := math.Log2(d)
	newLogQ := c.logQ - bitsUsed
	if newLogQ < 0 {
		panic(fmt.Sprintf("hisa: ckks-sim modulus exhausted by rescale: need %.1f bits, have %.1f",
			bitsUsed, c.logQ))
	}
	c.scale /= d
	c.logQ = newLogQ
	// Message-unit noise is unchanged by exact division; rounding adds
	// sqrt(N)/2 coefficient units at the new scale.
	hypotConst(c.noise, math.Sqrt(b.n())/(2*c.scale))
	b.checkCapacity(c)
}

// MaxRescale implements the CKKS restriction that divisors are powers of
// two, additionally capped by the remaining modulus.
func (b *SimBackend) MaxRescale(c Ciphertext, ub *big.Int) *big.Int {
	cc := b.ct(c)
	if ub.Sign() <= 0 {
		return big.NewInt(1)
	}
	bits := ub.BitLen() - 1
	if f := int(cc.logQ); bits > f {
		bits = f
	}
	if bits < 1 {
		return big.NewInt(1)
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(bits))
}

func (b *SimBackend) Scale(c Ciphertext) float64 { return b.ct(c).scale }

// NoiseOf exposes the largest per-slot noise std of a ciphertext (for tests
// and the profile-guided scale selection diagnostics).
func (b *SimBackend) NoiseOf(c Ciphertext) float64 {
	m := 0.0
	for _, n := range b.ct(c).noise {
		if n > m {
			m = n
		}
	}
	return m
}

// LogQRemaining exposes the remaining modulus bits of a ciphertext.
func (b *SimBackend) LogQRemaining(c Ciphertext) float64 { return b.ct(c).logQ }

// BootstrapCapable reports whether SimParams.Bootstrap was configured.
func (b *SimBackend) BootstrapCapable() bool { return b.params.Bootstrap != nil }

func (b *SimBackend) bootParams() *SimBootstrap {
	if b.params.Bootstrap == nil {
		panic("hisa: ckks-sim backend built without SimParams.Bootstrap")
	}
	return b.params.Bootstrap
}

// levelsAbove counts how many PrimeBits rescales fit between logQ and the
// Q0Bits base — the sim's level-equivalent of an RNS chain position.
func (b *SimBackend) levelsAbove(logQ float64) int {
	bs := b.bootParams()
	lv := int((logQ - float64(bs.Q0Bits)) / float64(bs.PrimeBits))
	if lv < 0 {
		lv = 0
	}
	return lv
}

// Bootstrap refreshes the ciphertext's modulus budget to FreshLogQ and
// charges the bootstrap's approximation noise — the observable bookkeeping
// of the real pipeline, with the slot values carried exactly.
func (b *SimBackend) Bootstrap(c Ciphertext) Ciphertext {
	bs := b.bootParams()
	cc := b.ct(c)
	out := b.ct(b.Copy(cc)).withLogQ(bs.FreshLogQ)
	hypotConst(out.noise, bs.Noise)
	b.checkCapacity(out)
	return out
}

// BudgetOf reports the ciphertext's remaining budget in chain levels.
func (b *SimBackend) BudgetOf(c Ciphertext) int { return b.levelsAbove(b.ct(c).logQ) }

// FreshBudget is the level budget right after a bootstrap.
func (b *SimBackend) FreshBudget() int { return b.levelsAbove(b.bootParams().FreshLogQ) }

// DropToFresh caps the ciphertext's budget at the fresh level (modulus
// switching is exact, so no noise is charged in message units).
func (b *SimBackend) DropToFresh(c Ciphertext) Ciphertext {
	bs := b.bootParams()
	cc := b.ct(c)
	out := b.ct(b.Copy(cc))
	if out.logQ > bs.FreshLogQ {
		out.logQ = bs.FreshLogQ
	}
	return out
}

func (c *simCT) withLogQ(logQ float64) *simCT {
	c.logQ = logQ
	return c
}

// Conjugate conjugates every slot. Like a rotation it is a key-switching
// automorphism, so it charges one key-switch noise term.
func (b *SimBackend) Conjugate(c Ciphertext) Ciphertext {
	cc := b.ct(c)
	noise := append([]float64(nil), cc.noise...)
	hypotConst(noise, b.keySwitchNoise(cc.scale))
	out := &simCT{
		vals:  append([]float64(nil), cc.vals...),
		scale: cc.scale,
		logQ:  cc.logQ,
		noise: noise,
	}
	if cc.ivals != nil {
		out.ivals = make([]float64, b.slots)
		for i := range out.ivals {
			out.ivals[i] = -cc.ivals[i]
		}
	}
	return out
}

// EncryptC encrypts a complex slot vector at scale f.
func (b *SimBackend) EncryptC(m []complex128, f float64) Ciphertext {
	if len(m) > b.slots {
		panic(fmt.Sprintf("hisa: %d values exceed %d slots", len(m), b.slots))
	}
	vals := make([]float64, b.slots)
	ivals := make([]float64, b.slots)
	for i, z := range m {
		vals[i] = real(z)
		ivals[i] = imag(z)
	}
	c := &simCT{
		vals:  vals,
		ivals: ivals,
		scale: f,
		logQ:  float64(b.params.LogQ),
		noise: constVec(b.slots, b.freshNoise(f)+b.encodingNoise(f)),
	}
	b.checkCapacity(c)
	return c
}

// DecryptC decrypts both slot components, injecting independent noise into
// the real and imaginary parts.
func (b *SimBackend) DecryptC(c Ciphertext) []complex128 {
	cc := b.ct(c)
	out := make([]complex128, b.slots)
	if b.params.NoNoise {
		for i := range out {
			out[i] = complex(cc.vals[i], imAt(cc.ivals, i))
		}
		return out
	}
	b.prngMu.Lock()
	defer b.prngMu.Unlock()
	for i := range out {
		out[i] = complex(
			cc.vals[i]+b.gauss()*cc.noise[i],
			imAt(cc.ivals, i)+b.gauss()*cc.noise[i])
	}
	return out
}

// AddPlainC adds a complex vector encoded at the ciphertext's scale.
func (b *SimBackend) AddPlainC(c Ciphertext, m []complex128) Ciphertext {
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
	noise := append([]float64(nil), cc.noise...)
	hypotConst(noise, b.encodingNoise(cc.scale))
	return &simCT{vals: vals, ivals: ivals, scale: cc.scale, logQ: cc.logQ, noise: noise}
}

// MulScalarC multiplies every slot by the complex constant x at scale f.
// The mimicked scheme encodes the constant as round(x·f) and multiplies
// exactly, so the applied multiplier is q = round(x·f)/f: the quantization
// error is deterministic (folded into the slot values) and the existing
// noise scales by |q| with no additive encoding term. In particular an
// exactly representable constant — e.g. 0.25 at factor 4, the complex-pack
// division — adds no noise at all, matching the RNS backend.
func (b *SimBackend) MulScalarC(c Ciphertext, x complex128, f float64) Ciphertext {
	cc := b.ct(c)
	vals := make([]float64, b.slots)
	ivals := make([]float64, b.slots)
	qr := math.Round(real(x)*f) / f
	qi := math.Round(imag(x)*f) / f
	qmag := hypot(qr, qi)
	noise := make([]float64, b.slots)
	for i := range vals {
		a, bi := cc.vals[i], imAt(cc.ivals, i)
		vals[i] = a*qr - bi*qi
		ivals[i] = a*qi + bi*qr
		noise[i] = cc.noise[i] * qmag
	}
	out := &simCT{vals: vals, ivals: ivals, scale: cc.scale * f, logQ: cc.logQ, noise: noise}
	b.checkCapacity(out)
	return out
}
