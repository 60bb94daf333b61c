package ring

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Ring represents the family of residue rings Z_{q_i}[X]/(X^N+1) for a chain
// of NTT-friendly primes q_0, ..., q_L. A Poly of level ℓ carries one residue
// row per prime q_0..q_ℓ. All multiplicative operations expect operands in
// the NTT (evaluation) domain unless documented otherwise.
type Ring struct {
	LogN   int
	N      int
	Moduli []Modulus

	tables []*nttTables

	// arena pools contiguous limb storage per row count (see arena.go).
	arena *arena

	autoMu    sync.Mutex
	autoPerms map[uint64][]int // NTT-domain permutation per Galois element

	// forwards and inverses count the row transforms run so far (NTTs).
	forwards, inverses atomic.Int64
}

// NewRing constructs a Ring with degree 2^logN and the given prime chain.
// Every prime must be ≡ 1 mod 2N and distinct.
func NewRing(logN int, primes []uint64) (*Ring, error) {
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("ring: logN %d out of range [1, 17]", logN)
	}
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	n := 1 << uint(logN)
	seen := make(map[uint64]bool, len(primes))
	r := &Ring{
		LogN:      logN,
		N:         n,
		Moduli:    make([]Modulus, len(primes)),
		tables:    make([]*nttTables, len(primes)),
		autoPerms: make(map[uint64][]int),
	}
	for i, q := range primes {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate prime %d", q)
		}
		seen[q] = true
		if !IsPrime(q) {
			return nil, fmt.Errorf("ring: modulus %d is not prime", q)
		}
		if (q-1)%uint64(2*n) != 0 {
			return nil, fmt.Errorf("ring: prime %d is not NTT-friendly for N=%d", q, n)
		}
		r.Moduli[i] = NewModulus(q)
		r.tables[i] = newNTTTables(q, logN)
	}
	r.arena = newArena(n, len(primes))
	return r, nil
}

// MaxLevel returns the highest level (index of the last prime in the chain).
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// Poly is a polynomial in RNS representation: Coeffs[i][j] is the j-th
// coefficient modulo the i-th prime. The level of a Poly is len(Coeffs)-1.
//
// Polys produced by NewPoly or the ring arena store all limbs in one
// contiguous backing buffer (row i is buf[i*N:(i+1)*N]), so multi-limb
// passes stream memory sequentially and whole-poly copies are single
// memmoves. Rows may also be assembled by hand (buf == nil), e.g. when
// unmarshaling; all operations accept both layouts.
type Poly struct {
	Coeffs [][]uint64
	// buf is the contiguous backing of Coeffs when the poly was allocated
	// whole; nil for row-assembled polys. It retains the full allocated
	// height across DropLevel, which is what lets the arena restore and
	// recycle level-dropped polys.
	buf []uint64
	// leased marks a poly currently checked out of the arena via GetPoly.
	// It gates the outstanding-lease counter so that donated polys (NewPoly
	// storage entering the pool through PutPoly for the first time) do not
	// drive the counter negative.
	leased bool
}

// NewPoly allocates a zero polynomial at the given level with contiguous
// limb storage.
func (r *Ring) NewPoly(level int) *Poly {
	if level < 0 || level > r.MaxLevel() {
		panic(fmt.Sprintf("ring: level %d out of range [0, %d]", level, r.MaxLevel()))
	}
	return newContiguousPoly(r.N, level+1)
}

// Level returns the level of p.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// contiguous reports whether rows 0..len(Coeffs)-1 are a prefix of one
// backing buffer, and returns that prefix.
func (p *Poly) contiguous() ([]uint64, bool) {
	if p.buf == nil || len(p.Coeffs) == 0 {
		return nil, false
	}
	n := len(p.Coeffs[0])
	total := len(p.Coeffs) * n
	if total > len(p.buf) {
		return nil, false
	}
	return p.buf[:total], true
}

// CopyNew returns a deep copy of p (contiguous regardless of p's layout).
func (p *Poly) CopyNew() *Poly {
	if len(p.Coeffs) == 0 {
		return &Poly{}
	}
	out := newContiguousPoly(len(p.Coeffs[0]), len(p.Coeffs))
	out.Copy(p)
	return out
}

// Copy copies src into p. Levels must match. When both polys are contiguous
// the copy is one memmove over all limbs.
func (p *Poly) Copy(src *Poly) {
	if len(p.Coeffs) != len(src.Coeffs) {
		panic("ring: level mismatch in Copy")
	}
	if db, ok := p.contiguous(); ok {
		if sb, ok := src.contiguous(); ok && len(db) == len(sb) {
			copy(db, sb)
			return
		}
	}
	for i := range p.Coeffs {
		copy(p.Coeffs[i], src.Coeffs[i])
	}
}

// CopyLevel copies rows 0..level of src into p. Both polys must reach level.
func (p *Poly) CopyLevel(src *Poly, level int) {
	for i := 0; i <= level; i++ {
		copy(p.Coeffs[i], src.Coeffs[i])
	}
}

// DropLevel removes the top rows so that p has the given level.
func (p *Poly) DropLevel(level int) {
	if level >= len(p.Coeffs) {
		panic("ring: DropLevel cannot raise level")
	}
	p.Coeffs = p.Coeffs[:level+1]
}

// Zero sets all coefficients of p to zero.
func (p *Poly) Zero() {
	if b, ok := p.contiguous(); ok {
		for j := range b {
			b[j] = 0
		}
		return
	}
	for i := range p.Coeffs {
		row := p.Coeffs[i]
		for j := range row {
			row[j] = 0
		}
	}
}

func (r *Ring) checkLevels(level int, ps ...*Poly) {
	for _, p := range ps {
		if p.Level() < level {
			panic(fmt.Sprintf("ring: operand level %d below requested level %d", p.Level(), level))
		}
	}
}

// NTT transforms p (levels 0..level) into the evaluation domain in place.
func (r *Ring) NTT(p *Poly, level int) {
	r.checkLevels(level, p)
	for i := 0; i <= level; i++ {
		r.tables[i].forward(p.Coeffs[i])
	}
	r.forwards.Add(int64(level + 1))
}

// InvNTT transforms p (levels 0..level) back to coefficient domain in place.
func (r *Ring) InvNTT(p *Poly, level int) {
	r.checkLevels(level, p)
	for i := 0; i <= level; i++ {
		r.tables[i].inverse(p.Coeffs[i])
	}
	r.inverses.Add(int64(level + 1))
}

// NTTSingle applies the forward NTT for the i-th prime to a raw row.
func (r *Ring) NTTSingle(i int, row []uint64) {
	r.tables[i].forward(row)
	r.forwards.Add(1)
}

// InvNTTSingle applies the inverse NTT for the i-th prime to a raw row.
func (r *Ring) InvNTTSingle(i int, row []uint64) {
	r.tables[i].inverse(row)
	r.inverses.Add(1)
}

// NTTs reports how many one-row forward and inverse transforms the ring has
// run, over every caller since it was built.
func (r *Ring) NTTs() (forward, inverse int64) { return r.forwards.Load(), r.inverses.Load() }

// Add sets out = a + b at the given level.
func (r *Ring) Add(a, b, out *Poly, level int) {
	r.checkLevels(level, a, b, out)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = AddMod(ra[j], rb[j], q)
		}
	}
}

// Sub sets out = a - b at the given level.
func (r *Ring) Sub(a, b, out *Poly, level int) {
	r.checkLevels(level, a, b, out)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = SubMod(ra[j], rb[j], q)
		}
	}
}

// Neg sets out = -a at the given level.
func (r *Ring) Neg(a, out *Poly, level int) {
	r.checkLevels(level, a, out)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ra, ro := a.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = NegMod(ra[j], q)
		}
	}
}

// MulCoeffs sets out = a ⊙ b (pointwise product; NTT domain) at level.
func (r *Ring) MulCoeffs(a, b, out *Poly, level int) {
	r.checkLevels(level, a, b, out)
	for i := 0; i <= level; i++ {
		m := r.Moduli[i]
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = m.BRed(ra[j], rb[j])
		}
	}
}

// MulCoeffsAndAdd sets out += a ⊙ b (pointwise; NTT domain) at level.
func (r *Ring) MulCoeffsAndAdd(a, b, out *Poly, level int) {
	r.checkLevels(level, a, b, out)
	for i := 0; i <= level; i++ {
		m := r.Moduli[i]
		q := m.Q
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = AddMod(ro[j], m.BRed(ra[j], rb[j]), q)
		}
	}
}

// MulScalar sets out = a * scalar at the given level. The scalar is reduced
// modulo each prime; it works in either domain.
func (r *Ring) MulScalar(a *Poly, scalar uint64, out *Poly, level int) {
	r.checkLevels(level, a, out)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		s := scalar % q
		ss := MForm(s, q)
		ra, ro := a.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = MulModShoup(ra[j], s, ss, q)
		}
	}
}

// GaloisGen is the generator of the cyclic rotation group of CKKS slots:
// the automorphism X -> X^{5^k} rotates the slot vector by k positions.
const GaloisGen uint64 = 5

// GaloisElementForRotation returns the Galois element 5^k mod 2N that
// rotates CKKS slots left by k (k may be negative).
func (r *Ring) GaloisElementForRotation(k int) uint64 {
	m := uint64(2 * r.N)
	order := uint64(r.N / 2) // order of 5 in Z_{2N}^* / {±1} slots cycle
	kk := uint64(((k % int(order)) + int(order))) % order
	return PowMod(GaloisGen, kk, m)
}

// GaloisElementConjugate returns the Galois element 2N-1 realizing complex
// conjugation of the slots.
func (r *Ring) GaloisElementConjugate() uint64 { return uint64(2*r.N) - 1 }

// permTable returns (building if needed) the NTT-domain permutation for the
// Galois automorphism X -> X^galEl.
func (r *Ring) permTable(galEl uint64) []int {
	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	if p, ok := r.autoPerms[galEl]; ok {
		return p
	}
	n := r.N
	m := uint64(2 * n)
	if galEl%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	logN := r.LogN
	shift := 64 - uint(logN)
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		// Storage slot i holds the evaluation at psi^{2*rev(i)+1}.
		iRev := int(bits.Reverse64(uint64(i)) >> shift)
		// After the automorphism the value at exponent e comes from
		// exponent e*galEl.
		e := (uint64(2*iRev+1) * galEl) % m
		j := int((e - 1) / 2)
		jRev := int(bits.Reverse64(uint64(j)) >> shift)
		perm[i] = jRev
	}
	r.autoPerms[galEl] = perm
	return perm
}

// NTTPermutation returns the NTT-domain index permutation realizing the
// Galois automorphism X -> X^galEl: applying perm[j] as a gather index maps
// a polynomial's NTT row to the NTT row of its automorphic image. The slice
// is owned by the ring's cache and must not be modified.
func (r *Ring) NTTPermutation(galEl uint64) []int { return r.permTable(galEl) }

// AutomorphismNTT applies X -> X^galEl to a (in NTT domain), writing to out.
// a and out must not alias.
func (r *Ring) AutomorphismNTT(a *Poly, galEl uint64, out *Poly, level int) {
	r.checkLevels(level, a, out)
	perm := r.permTable(galEl)
	for i := 0; i <= level; i++ {
		ra, ro := a.Coeffs[i], out.Coeffs[i]
		for j, pj := range perm {
			ro[j] = ra[pj]
		}
	}
}

// AutomorphismCoeff applies X -> X^galEl to a in the coefficient domain,
// writing to out. a and out must not alias. Exposed for testing the
// NTT-domain permutation against the definition.
func (r *Ring) AutomorphismCoeff(a *Poly, galEl uint64, out *Poly, level int) {
	r.checkLevels(level, a, out)
	n := uint64(r.N)
	m := 2 * n
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ra, ro := a.Coeffs[i], out.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			e := (j * galEl) % m
			if e < n {
				ro[e] = ra[j]
			} else {
				ro[e-n] = NegMod(ra[j], q)
			}
		}
	}
}
