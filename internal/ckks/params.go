// Package ckks implements the RNS variant of the CKKS approximate
// homomorphic encryption scheme (Cheon-Kim-Kim-Song, with the full-RNS
// optimizations of Cheon-Han-Kim-Kim-Song), the scheme implemented by SEAL
// v3.1 and targeted by the CHET compiler. It is built from scratch on the
// negacyclic NTT rings of internal/ring and supports encoding into N/2
// complex slots, encryption, addition, multiplication with relinearization,
// plaintext and scalar multiplication, rescaling by chain moduli, slot
// rotation, and conjugation.
package ckks

import (
	"fmt"
	"math"
	"math/big"

	"chet/internal/ring"
)

// Parameters fully determines an RNS-CKKS instantiation.
type Parameters struct {
	logN     int
	logSlots int
	qChain   []uint64 // ciphertext modulus chain q_0 .. q_L
	pSpecial []uint64 // special primes p_1 .. p_α for key switching; P = ∏ p_k
	scale    float64  // default encoding scale
	ring     *ring.Ring

	// Key-switch invariants hoisted out of the per-operation hot path (see
	// hoisting.go for how they are used). Digit i of a key switch is the
	// group of α consecutive chain primes starting at row i·α; at a level
	// that cuts a group short the digit is the partial group.
	//
	// modUp[i][a-1] extends digit i restricted to its first a primes to
	// every other ring row. modDown[k-1] holds the ModDown constants of a key
	// switch that works over the first k special primes (see liveSpecial),
	// and ksRowsByLevel the extended-basis rows of a key switch per level.
	modUp         [][]*ring.BasisExtender
	modDown       []modDownTables
	ksRowsByLevel [][]int

	// Rescale invariants: (q_level mod q_j)^{-1} mod q_j for j < level,
	// plain and Shoup form, so dividing by a chain prime never computes a
	// modular inverse on the hot path.
	rescaleQInv      [][]uint64
	rescaleQInvShoup [][]uint64
}

// ParametersLiteral is the user-facing description of a parameter set.
type ParametersLiteral struct {
	LogN          int   // ring degree is 2^LogN
	LogQ          []int // bit sizes of the chain primes, q_0 first
	LogP          int   // bit size of each key-switching special prime
	Alpha         int   // number of special primes α (0 means 1); a key-switch digit groups α chain primes
	LogScale      int   // default encoding scale is 2^LogScale
	LogSlots      int   // optional; defaults to LogN-1 (full packing)
	Deterministic bool  // reserved for test fixtures
}

// NewParameters generates concrete NTT-friendly primes realizing the literal
// and returns the parameter set.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 4 || lit.LogN > 16 {
		return nil, fmt.Errorf("ckks: LogN %d out of supported range [4, 16]", lit.LogN)
	}
	if len(lit.LogQ) == 0 {
		return nil, fmt.Errorf("ckks: empty modulus chain")
	}
	logSlots := lit.LogSlots
	if logSlots == 0 {
		logSlots = lit.LogN - 1
	}
	if logSlots >= lit.LogN {
		return nil, fmt.Errorf("ckks: LogSlots %d must be < LogN %d", logSlots, lit.LogN)
	}
	alpha := lit.Alpha
	if alpha == 0 {
		alpha = 1
	}
	if alpha < 1 || alpha > len(lit.LogQ) {
		return nil, fmt.Errorf("ckks: %d special primes out of range [1, %d chain primes]", alpha, len(lit.LogQ))
	}

	// Group requested bit sizes so equal sizes share one downward search.
	want := map[int]int{}
	for _, b := range lit.LogQ {
		if b < 20 || b > 60 {
			return nil, fmt.Errorf("ckks: chain prime bit size %d out of range [20, 60]", b)
		}
		want[b]++
	}
	if lit.LogP < 20 || lit.LogP > 60 {
		return nil, fmt.Errorf("ckks: special prime bit size %d out of range [20, 60]", lit.LogP)
	}
	want[lit.LogP] += alpha

	found := map[int][]uint64{}
	for bits, n := range want {
		primes, err := ring.GenerateNTTPrimes(bits, lit.LogN, n)
		if err != nil {
			return nil, err
		}
		found[bits] = primes
	}

	next := map[int]int{}
	take := func(bits int) uint64 {
		p := found[bits][next[bits]]
		next[bits]++
		return p
	}

	qChain := make([]uint64, len(lit.LogQ))
	for i, b := range lit.LogQ {
		qChain[i] = take(b)
	}
	pSpecial := make([]uint64, alpha)
	for k := range pSpecial {
		pSpecial[k] = take(lit.LogP)
	}

	allPrimes := append(append([]uint64{}, qChain...), pSpecial...)
	rg, err := ring.NewRing(lit.LogN, allPrimes)
	if err != nil {
		return nil, err
	}

	p := &Parameters{
		logN:     lit.LogN,
		logSlots: logSlots,
		qChain:   qChain,
		pSpecial: pSpecial,
		scale:    math.Exp2(float64(lit.LogScale)),
		ring:     rg,
	}
	p.precomputeKeySwitch()
	return p, nil
}

// precomputeKeySwitch derives the constants every key switch needs, so the
// evaluator never recomputes a modular inverse, a basis-extension table or
// the extended-basis row list inside the hot path.
func (p *Parameters) precomputeKeySwitch() {
	r := p.ring
	chain, alpha := len(p.qChain), len(p.pSpecial)

	p.modUp = make([][]*ring.BasisExtender, p.Digits(p.MaxLevel()))
	for i := range p.modUp {
		lo, hi := p.digitRows(i, p.MaxLevel())
		p.modUp[i] = make([]*ring.BasisExtender, hi-lo)
		for a := 1; a <= hi-lo; a++ {
			p.modUp[i][a-1] = r.NewBasisExtender(rowRange(lo, lo+a))
		}
	}

	mod := func(x *big.Int, q uint64) uint64 {
		return new(big.Int).Mod(x, new(big.Int).SetUint64(q)).Uint64()
	}
	bigP := big.NewInt(1)
	for _, pk := range p.pSpecial {
		bigP.Mul(bigP, new(big.Int).SetUint64(pk))
	}
	p.modDown = make([]modDownTables, alpha)
	pLive := big.NewInt(1) // P_k = p_1···p_k
	for k := 1; k <= alpha; k++ {
		pLive.Mul(pLive, new(big.Int).SetUint64(p.pSpecial[k-1]))
		t := modDownTables{
			ext:       r.NewBasisExtender(rowRange(chain, chain+k)),
			half:      make([]uint64, len(r.Moduli)),
			pInv:      make([]uint64, chain),
			pInvShoup: make([]uint64, chain),
			p:         make([]uint64, chain),
			pShoup:    make([]uint64, chain),
		}
		half := new(big.Int).Rsh(pLive, 1)
		for j := range r.Moduli {
			t.half[j] = mod(half, r.Moduli[j].Q)
		}
		rest := new(big.Int).Div(bigP, pLive) // the special primes left out
		if k < alpha {
			t.lift = make([]uint64, chain)
			t.liftShoup = make([]uint64, chain)
		}
		for j, qj := range p.qChain {
			t.p[j] = mod(pLive, qj)
			t.pShoup[j] = ring.MForm(t.p[j], qj)
			t.pInv[j] = ring.InvMod(t.p[j], qj)
			t.pInvShoup[j] = ring.MForm(t.pInv[j], qj)
			if k < alpha {
				t.lift[j] = ring.InvMod(mod(rest, qj), qj)
				t.liftShoup[j] = ring.MForm(t.lift[j], qj)
			}
		}
		p.modDown[k-1] = t
	}

	p.ksRowsByLevel = make([][]int, chain)
	for level := range p.ksRowsByLevel {
		p.ksRowsByLevel[level] = append(rowRange(0, level+1), rowRange(chain, chain+p.liveSpecial(level))...)
	}
	p.rescaleQInv = make([][]uint64, chain)
	p.rescaleQInvShoup = make([][]uint64, chain)
	for level := 1; level < chain; level++ {
		qTop := p.qChain[level]
		p.rescaleQInv[level] = make([]uint64, level)
		p.rescaleQInvShoup[level] = make([]uint64, level)
		for j := 0; j < level; j++ {
			qj := p.qChain[j]
			inv := ring.InvMod(qTop%qj, qj)
			p.rescaleQInv[level][j] = inv
			p.rescaleQInvShoup[level][j] = ring.MForm(inv, qj)
		}
	}
}

func rowRange(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for j := lo; j < hi; j++ {
		rows = append(rows, j)
	}
	return rows
}

// modDownTables are the constants of a key switch whose special modulus is
// P_k = p_1···p_k, the first k special primes.
type modDownTables struct {
	ext             *ring.BasisExtender // the k special rows to every other ring row
	half            []uint64            // ⌊P_k/2⌋ modulo every ring row: added before and removed after the extension, so the division rounds to nearest
	pInv, pInvShoup []uint64            // P_k^{-1} mod q_j per chain prime
	p, pShoup       []uint64            // P_k mod q_j per chain prime: lifts a chain-basis value into the extended basis, where ModDown returns it unchanged
	// lift is (P/P_k)^{-1} mod q_j per chain prime, nil when k = α. The keys
	// encrypt P·s'; multiplying the polynomial by lift before it is
	// decomposed turns them into encryptions of P_k·s' for it.
	lift, liftShoup []uint64
}

// liveSpecial returns how many special primes a key switch at the given
// level works over: as many as the largest digit has chain primes,
// min(α, level+1). P_k = p_1···p_k then still exceeds every digit, which is
// all the noise bound asks, and a switch low in the chain does not pay for
// special rows it has no use for — below level α-1 the one remaining digit
// shrinks with the level, and the extended basis shrinks with it.
func (p *Parameters) liveSpecial(level int) int { return min(len(p.pSpecial), level+1) }

// ksTables returns the ModDown constants for a key switch at the level.
func (p *Parameters) ksTables(level int) *modDownTables {
	return &p.modDown[p.liveSpecial(level)-1]
}

// ksRows returns the extended-basis row indices a key switch at the given
// level touches: chain rows 0..level, then the live special rows. The slice
// is shared; do not modify.
func (p *Parameters) ksRows(level int) []int { return p.ksRowsByLevel[level] }

// Alpha returns the number of special primes α — the number of chain primes
// grouped into one key-switch digit.
func (p *Parameters) Alpha() int { return len(p.pSpecial) }

// Digits returns β = ⌈(level+1)/α⌉, the number of key-switch digits at a
// level. Switching keys hold Digits(MaxLevel()) digits.
func (p *Parameters) Digits(level int) int {
	return (level + len(p.pSpecial)) / len(p.pSpecial)
}

// digitRows returns the chain rows [lo, hi) digit i covers at a level: its
// α-prime group, cut short where the level ends inside it.
func (p *Parameters) digitRows(i, level int) (lo, hi int) {
	alpha := len(p.pSpecial)
	return i * alpha, min((i+1)*alpha, level+1)
}

// digitExtender returns digit i's ModUp extension at a level.
func (p *Parameters) digitExtender(i, level int) *ring.BasisExtender {
	lo, hi := p.digitRows(i, level)
	return p.modUp[i][hi-lo-1]
}

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << uint(p.logN) }

// Slots returns the number of plaintext slots (2^LogSlots).
func (p *Parameters) Slots() int { return 1 << uint(p.logSlots) }

// LogSlots returns log2 of the slot count.
func (p *Parameters) LogSlots() int { return p.logSlots }

// MaxLevel returns the top ciphertext level L (fresh ciphertexts start here).
func (p *Parameters) MaxLevel() int { return len(p.qChain) - 1 }

// QChain returns the ciphertext modulus chain (a copy).
func (p *Parameters) QChain() []uint64 { return append([]uint64(nil), p.qChain...) }

// Qi returns the i-th chain prime.
func (p *Parameters) Qi(i int) uint64 { return p.qChain[i] }

// SpecialPrimes returns the key-switching special primes (a copy).
func (p *Parameters) SpecialPrimes() []uint64 { return append([]uint64(nil), p.pSpecial...) }

// DefaultScale returns the default encoding scale.
func (p *Parameters) DefaultScale() float64 { return p.scale }

// Ring returns the underlying RNS ring, whose prime order is the chain
// primes followed by the special primes.
func (p *Parameters) Ring() *ring.Ring { return p.ring }

// LogQTotal returns the total bit length of the ciphertext modulus
// sum(log2 q_i): what ciphertexts live under, and what bounds the levels a
// circuit can consume. The security table constrains LogQP, not this.
func (p *Parameters) LogQTotal() float64 { return sumLog2(p.qChain) }

// LogQP returns the bit length of the largest modulus any RLWE sample is
// published under — chain plus every special prime, the modulus of the
// switching keys. This is the quantity the security table constrains.
func (p *Parameters) LogQP() float64 { return sumLog2(p.qChain) + sumLog2(p.pSpecial) }

func sumLog2(primes []uint64) float64 {
	total := 0.0
	for _, q := range primes {
		total += math.Log2(float64(q))
	}
	return total
}
