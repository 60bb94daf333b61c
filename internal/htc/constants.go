package htc

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"chet/internal/hisa"
)

// Constants is a store of encoded kernel constants — convolution and dense
// weights, masks, batch-norm scales and biases — shared by every execution of
// one compiled program. The kernels still build each constant's slot vector
// on every execution; the store encodes it once, on its first use, and hands
// the plaintext to every later use.
//
// An entry's key is the exact vector (a hash, then an exact compare on a
// hit), the scale, and the level of the ciphertext it meets, and the
// constant is encoded at that level: a product reads only the ciphertext's
// rows, and encoding is row-independent, so results are bit-identical to a
// top-level plaintext while the store holds (ℓ+1)·N·8 bytes per constant
// instead of (L+1)·N·8. When the backend can bootstrap, the level is raised
// to the fresh level, because a hisa.Refresher may swap a refreshed,
// higher-level operand in for the ciphertext inside the multiplication.
//
// Only backends with leveled plaintexts (hisa.LeveledEncodeBackend: RNS-CKKS,
// where an encode is an FFT and an NTT per row) use the store. On the mock
// backends an encode is a copy of the vector, cheaper than the lookup, and
// kernels encode per call there whether or not a store is given.
//
// Plaintexts depend only on the encryption parameters, so one store may
// serve every session and batch lane of a program. It is safe for concurrent
// use: a missing entry is encoded once (single-flight) while other users of
// it wait.
type Constants struct {
	mu      sync.Mutex
	entries map[constKey][]*constEntry

	plaintexts atomic.Int64
	bytes      atomic.Int64
}

type constKey struct {
	hash  uint64
	scale float64
	level int
}

type constEntry struct {
	vec  []float64
	once sync.Once
	pt   hisa.Plaintext
}

// NewConstants returns an empty store.
func NewConstants() *Constants {
	return &Constants{entries: map[constKey][]*constEntry{}}
}

// Plaintexts reports how many encoded constants the store holds.
func (s *Constants) Plaintexts() int { return int(s.plaintexts.Load()) }

// Bytes reports the memory the store's plaintexts hold: (ℓ+1)·N·8 bytes for
// a plaintext at level ℓ, N = 2·Slots.
func (s *Constants) Bytes() int64 { return s.bytes.Load() }

// plaintext returns k encoded for use with ciphertext c.
func (s *Constants) plaintext(c hisa.Ciphertext, k constant) hisa.Plaintext {
	level := k.enc.LevelOf(c)
	if bb, ok := hisa.AsBootstrap(k.b); ok {
		level = max(level, bb.FreshBudget())
	}
	e := s.entry(constKey{hash: k.hash, scale: k.scale, level: level}, k.vec)
	e.once.Do(func() {
		e.pt = k.enc.EncodeAt(k.vec, k.scale, level)
		s.plaintexts.Add(1)
		s.bytes.Add(int64(level+1) * int64(2*k.b.Slots()) * 8)
	})
	return e.pt
}

// entry finds the entry holding exactly v under key, adding an empty one
// when there is none.
func (s *Constants) entry(key constKey, v []float64) *constEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries[key] {
		if sameBits(e.vec, v) {
			return e
		}
	}
	e := &constEntry{vec: v}
	s.entries[key] = append(s.entries[key], e)
	return e
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hashVec hashes a vector's bit patterns. Each step is a bijection of the
// running hash, so two vectors differing in a single slot never collide.
func hashVec(v []float64) uint64 {
	h := uint64(len(v))
	for _, x := range v {
		h = bits.RotateLeft64((h^math.Float64bits(x))*0x9e3779b97f4a7c15, 27)
	}
	return h
}

// constant is one kernel constant: a slot vector at a scale. Without a
// store — the compiler's analysis runs, the mock backends — it is encoded
// where it is built, once per kernel call; with one, each use asks the store
// for the plaintext at the level of the ciphertext it meets.
type constant struct {
	store *Constants
	b     hisa.Backend
	enc   hisa.LeveledEncodeBackend
	vec   []float64
	scale float64
	hash  uint64
	pt    hisa.Plaintext // set when store is nil
}

// constant prepares the kernel constant v at scale f.
func (o ExecOptions) constant(b hisa.Backend, v []float64, f float64) constant {
	enc, leveled := hisa.AsLeveledEncode(b)
	if o.Constants == nil || !leveled {
		return constant{pt: b.Encode(v, f)}
	}
	return constant{store: o.Constants, b: b, enc: enc, vec: v, scale: f, hash: hashVec(v)}
}

// at returns the constant's plaintext for a multiplication or addition with
// ciphertext c.
func (k constant) at(c hisa.Ciphertext) hisa.Plaintext {
	if k.store == nil {
		return k.pt
	}
	return k.store.plaintext(c, k)
}
