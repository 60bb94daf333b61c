package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"chet/internal/ring"
)

// SecretKey is the ternary secret s, stored in NTT domain over all primes
// (chain plus special).
type SecretKey struct {
	Value *ring.Poly
}

// PublicKey is an encryption of zero (b, a) with b = -a*s + e, stored in NTT
// domain over the chain primes only.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a ciphertext component from a source secret s' to
// the canonical secret s. One (B, A) pair per key-switch digit (a group of α
// consecutive chain primes, see hoisting.go).
//
// A key serves the ciphertexts at levels 0..Level. It holds Digits(Level)
// digits, each over exactly the extended-basis rows a key switch at Level
// reads — chain rows 0..Level and the live special rows — and nil in every
// other ring row. A switch at a lower level reads a subset of those rows and
// digits, so one key serves every level up to its own; a key cut at level ℓ
// is, bit for bit, the restriction of the full-chain key drawn from the same
// seed (see KeyGenerator).
type SwitchingKey struct {
	B, A  []*ring.Poly
	Level int
}

// RelinearizationKey switches from s^2 to s, enabling ciphertext-ciphertext
// multiplication.
type RelinearizationKey struct {
	Key *SwitchingKey
}

// RotationKeySet holds Galois keys indexed by Galois element.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// GaloisElements returns the set of Galois elements with keys, useful for
// asserting which rotations a runtime may perform.
func (r *RotationKeySet) GaloisElements() []uint64 {
	out := make([]uint64, 0, len(r.Keys))
	for g := range r.Keys {
		out = append(out, g)
	}
	return out
}

// KeyGenerator samples keys for a parameter set.
//
// The secret key is sampled from the generator's PRNG directly. Every other
// key draws one 32-byte seed from it and expands the seed with ChaCha8 (a
// CSPRNG) into one stream per (digit, ring row) for the uniform half and one
// per digit for the error. No stream depends on which other rows or digits
// are generated, so a key cut at a lower level is the restriction of the
// full-chain key, and the independent (key, digit) tasks run on every core
// with the same keys for any core count.
type KeyGenerator struct {
	params  *Parameters
	prng    ring.PRNG
	sampler *ring.Sampler
}

// NewKeyGenerator creates a key generator drawing randomness from prng.
func NewKeyGenerator(params *Parameters, prng ring.PRNG) *KeyGenerator {
	return &KeyGenerator{params: params, prng: prng, sampler: ring.NewSampler(params.Ring(), prng)}
}

// keySeed is the 32 bytes one key's randomness expands from.
type keySeed [32]byte

// errorStream names a digit's error stream in keySeed.sampler; uniform
// streams are named by their ring row.
const errorStream = -1

func (kg *KeyGenerator) newSeed() (s keySeed) {
	for i := 0; i < len(s); i += 8 {
		binary.LittleEndian.PutUint64(s[i:], kg.prng.Uint64())
	}
	return s
}

// sampler returns a sampler over the key's ChaCha8 stream for (digit, row),
// seeded with SHA-256 of the key seed and the stream's coordinates.
func (s *keySeed) sampler(r *ring.Ring, digit, row int) *ring.Sampler {
	var buf [40]byte
	copy(buf[:], s[:])
	binary.LittleEndian.PutUint32(buf[32:], uint32(int32(digit)))
	binary.LittleEndian.PutUint32(buf[36:], uint32(int32(row)))
	return ring.NewSampler(r, rand.NewChaCha8(sha256.Sum256(buf[:])))
}

// GenSecretKey samples a fresh ternary secret key.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	r := kg.params.Ring()
	full := r.MaxLevel() // includes the special prime row
	s := r.NewPoly(full)
	kg.sampler.TernaryPoly(s, full)
	r.NTT(s, full)
	return &SecretKey{Value: s}
}

// GenPublicKey derives an encryption key from sk, over the chain primes.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	r := kg.params.Ring()
	level := kg.params.MaxLevel()
	seed := kg.newSeed()
	a, b := r.NewPoly(level), r.NewPoly(level)
	rows := rowRange(0, level+1)
	for _, j := range rows {
		seed.sampler(r, 0, j).UniformRow(j, a.Coeffs[j])
	}
	seed.sampler(r, 0, errorStream).GaussianRows(b, rows)
	for _, j := range rows {
		encryptZeroRow(r, j, a.Coeffs[j], sk.Value.Coeffs[j], b.Coeffs[j])
	}
	return &PublicKey{B: b, A: a}
}

// encryptZeroRow turns row j of an error polynomial (coefficient domain,
// in b) into row j of b = -a*s + e in the NTT domain.
func encryptZeroRow(r *ring.Ring, j int, a, s, b []uint64) {
	m := r.Moduli[j]
	r.NTTSingle(j, b)
	for k := range b {
		b[k] = ring.SubMod(b[k], m.BRed(a[k], s[k]), m.Q)
	}
}

// keyJob is one switching key to generate: its seed, and row j of its
// source secret s' (NTT domain), written into out.
type keyJob struct {
	swk    *SwitchingKey
	seed   keySeed
	sPrime func(j int, out []uint64)
}

// newJob draws the next key's seed and sizes its digit slices for level.
func (kg *KeyGenerator) newJob(level int, sPrime func(j int, out []uint64)) *keyJob {
	if level < 0 || level > kg.params.MaxLevel() {
		panic(fmt.Sprintf("ckks: switching key level %d outside the chain [0, %d]", level, kg.params.MaxLevel()))
	}
	d := kg.params.Digits(level)
	return &keyJob{
		swk:    &SwitchingKey{B: make([]*ring.Poly, d), A: make([]*ring.Poly, d), Level: level},
		seed:   kg.newSeed(),
		sPrime: sPrime,
	}
}

// generate fills every digit of every job, fanning the independent (key,
// digit) tasks over runtime.GOMAXPROCS(0) goroutines. Each task reads only
// its own streams, so the keys do not depend on the goroutine count.
func (kg *KeyGenerator) generate(sk *SecretKey, jobs []*keyJob) {
	type task struct {
		job   *keyJob
		digit int
	}
	var tasks []task
	for _, job := range jobs {
		for i := range job.swk.B {
			tasks = append(tasks, task{job, i})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(tasks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < len(tasks); t = int(next.Add(1)) - 1 {
				kg.genDigit(sk, tasks[t].job, tasks[t].digit)
			}
		}()
	}
	wg.Wait()
}

// genDigit builds digit i of a job's key over the rows a key switch at the
// key's level reads:
//
//	b = -a*s + e + P*F_i*s'
//
// where F_i ≡ 1 modulo the chain primes of digit i and ≡ 0 modulo every other
// chain prime: only the digit's own rows receive the (P mod q_j)*s' term, and
// the special-prime rows carry no message term at all (P ≡ 0 there).
func (kg *KeyGenerator) genDigit(sk *SecretKey, job *keyJob, i int) {
	params := kg.params
	r := params.Ring()
	n := r.N
	level := job.swk.Level
	rows := params.ksRows(level)
	a := &ring.Poly{Coeffs: make([][]uint64, len(r.Moduli))}
	b := &ring.Poly{Coeffs: make([][]uint64, len(r.Moduli))}
	backing := make([]uint64, 2*len(rows)*n)
	for t, j := range rows {
		a.Coeffs[j] = backing[2*t*n : (2*t+1)*n : (2*t+1)*n]
		b.Coeffs[j] = backing[(2*t+1)*n : (2*t+2)*n : (2*t+2)*n]
		job.seed.sampler(r, i, j).UniformRow(j, a.Coeffs[j])
	}
	job.seed.sampler(r, i, errorStream).GaussianRows(b, rows)

	lo, hi := params.digitRows(i, level)
	sPrime := make([]uint64, n)
	for _, j := range rows {
		encryptZeroRow(r, j, a.Coeffs[j], sk.Value.Coeffs[j], b.Coeffs[j])
		if j < lo || j >= hi {
			continue
		}
		qj := r.Moduli[j].Q
		pModQj := uint64(1)
		for _, pk := range params.pSpecial {
			pModQj = ring.MulMod(pModQj, pk%qj, qj)
		}
		pShoup := ring.MForm(pModQj, qj)
		job.sPrime(j, sPrime)
		rowB := b.Coeffs[j]
		for k := range rowB {
			term := ring.MulModShoup(sPrime[k], pModQj, pShoup, qj)
			rowB[k] = ring.AddMod(rowB[k], term, qj)
		}
	}
	job.swk.B[i], job.swk.A[i] = b, a
}

// GenRelinearizationKey produces the key switching s^2 -> s for ciphertexts
// at levels 0..level.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey, level int) *RelinearizationKey {
	r := kg.params.Ring()
	job := kg.newJob(level, func(j int, out []uint64) {
		m, s := r.Moduli[j], sk.Value.Coeffs[j]
		for k, x := range s {
			out[k] = m.BRed(x, x)
		}
	})
	kg.generate(sk, []*keyJob{job})
	return &RelinearizationKey{Key: job.swk}
}

// GenGaloisKeys produces one key per Galois element of levels, each serving
// the ciphertexts at levels 0..levels[g]. Seeds are drawn in ascending order
// of the element, so the same generator state and the same elements give the
// same keys — cut wherever their levels say.
func (kg *KeyGenerator) GenGaloisKeys(sk *SecretKey, levels map[uint64]int) *RotationKeySet {
	r := kg.params.Ring()
	gals := make([]uint64, 0, len(levels))
	for g := range levels {
		gals = append(gals, g)
	}
	sort.Slice(gals, func(i, j int) bool { return gals[i] < gals[j] })
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey, len(gals))}
	jobs := make([]*keyJob, len(gals))
	for i, g := range gals {
		perm := r.NTTPermutation(g)
		jobs[i] = kg.newJob(levels[g], func(j int, out []uint64) {
			s := sk.Value.Coeffs[j]
			for k, pk := range perm {
				out[k] = s[pk]
			}
		})
		set.Keys[g] = jobs[i].swk
	}
	kg.generate(sk, jobs)
	return set
}

// GenRotationKeys produces full-chain Galois keys for the given slot
// rotations (positive = left). Pass includeConjugate to add the conjugation
// key.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int, includeConjugate bool) *RotationKeySet {
	r := kg.params.Ring()
	top := kg.params.MaxLevel()
	levels := make(map[uint64]int, len(rotations)+1)
	for _, k := range rotations {
		if k != 0 {
			levels[r.GaloisElementForRotation(k)] = top
		}
	}
	if includeConjugate {
		levels[r.GaloisElementConjugate()] = top
	}
	return kg.GenGaloisKeys(sk, levels)
}

// RotationKeyFor fetches the switching key for a Galois element applied to
// a ciphertext at level, with a descriptive error when the circuit requests
// a rotation that was not provisioned (the failure mode CHET's rotation-keys
// pass exists to prevent) or was provisioned only for lower levels.
func (r *RotationKeySet) RotationKeyFor(galEl uint64, level int) (*SwitchingKey, error) {
	if r == nil || r.Keys == nil {
		return nil, fmt.Errorf("ckks: no rotation keys provisioned")
	}
	k, ok := r.Keys[galEl]
	if !ok {
		return nil, fmt.Errorf("ckks: missing rotation key for Galois element %d", galEl)
	}
	if level > k.Level {
		return nil, fmt.Errorf("ckks: rotation key for Galois element %d serves levels up to %d, ciphertext is at level %d",
			galEl, k.Level, level)
	}
	return k, nil
}

// relinKey returns the relinearization key for a key switch at level,
// panicking like a missing rotation key when there is none or it serves
// only lower levels.
func (ev *Evaluator) relinKey(level int) *SwitchingKey {
	if ev.rlk == nil {
		panic("ckks: evaluator has no relinearization key")
	}
	if k := ev.rlk.Key; level > k.Level {
		panic(fmt.Sprintf("ckks: relinearization key serves levels up to %d, ciphertext is at level %d", k.Level, level))
	}
	return ev.rlk.Key
}
