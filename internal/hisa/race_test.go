package hisa

import (
	"math/big"
	"sync"
	"testing"
)

// hammer runs fn from workers goroutines, iters times each.
func hammer(workers, iters int, fn func(worker, iter int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// TestMeterConcurrentCounts hammers a metered backend from 8 goroutines and
// checks the tallies are exact: with plain-int counters this test fails
// under -race (and typically undercounts even without it).
func TestMeterConcurrentCounts(t *testing.T) {
	const workers, iters = 8, 200
	for _, inner := range []Backend{
		NewRefBackend(64),
		NewSimBackend(SimParams{LogN: 7, LogQ: 240}),
	} {
		m := NewMeter(inner, func(x int) int {
			return len(RotationSteps(x, inner.Slots(), func(int) bool { return false }))
		})
		vals := rv(inner.Slots(), 0.5, 3)
		ct := m.Encrypt(m.Encode(vals, testScale))

		hammer(workers, iters, func(w, i int) {
			c2 := m.Add(ct, ct)
			c2 = m.MulScalar(c2, 0.5, testScale)
			c2 = m.RotLeft(c2, 6) // 2 power-of-two steps
			d := m.MaxRescale(c2, big.NewInt(1<<40))
			m.Rescale(c2, d)
			m.Decrypt(ct)
		})

		c := m.Counts()
		n := workers * iters
		if c[OpAdd] != n || c[OpMulScalar] != n || c.Rotations() != 2*n {
			t.Fatalf("%s: arith counts lost updates: %+v (want %d each, %d rotations)",
				inner.Name(), c, n, 2*n)
		}
		if c[OpRescale] != n || c[OpMaxRescale] != n {
			t.Fatalf("%s: rescale counts lost updates: %+v", inner.Name(), c)
		}
		if c[OpDecrypt] != n || c[OpEncrypt] != 1 {
			t.Fatalf("%s: IO counts lost updates: %+v", inner.Name(), c)
		}
	}
}

// TestBackendsConcurrentOps exercises the executable backends' concurrency
// contract: concurrent functional ops on shared ciphertexts must be safe and
// produce the same values a serial run does. Run with -race.
func TestBackendsConcurrentOps(t *testing.T) {
	for _, b := range []Backend{
		NewRefBackend(64),
		NewSimBackend(SimParams{LogN: 7, LogQ: 240}),
	} {
		vals := rv(b.Slots(), 0.5, 5)
		pt := b.Encode(vals, testScale)
		ct := b.Encrypt(pt)

		body := func() Ciphertext {
			x := b.MulPlain(b.Add(ct, ct), pt)
			x = b.RotLeft(x, 3)
			d := b.MaxRescale(x, big.NewInt(1<<20))
			return b.Rescale(x, d)
		}
		want := b.Decode(decryptNoiseless(b, body()))

		const workers = 8
		results := make([][]float64, workers)
		hammer(workers, 20, func(w, i int) {
			results[w] = b.Decode(decryptNoiseless(b, body()))
		})
		for w, got := range results {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: worker %d slot %d: parallel %g != serial %g",
						b.Name(), w, i, got[i], want[i])
				}
			}
		}
	}
}

// decryptNoiseless decrypts without sampling noise where the backend allows
// it, so value comparisons are exact.
func decryptNoiseless(b Backend, c Ciphertext) Plaintext {
	if sim, ok := b.(*SimBackend); ok {
		vals := append([]float64(nil), sim.ct(c).vals...)
		return &simPT{vals: vals, scale: sim.ct(c).scale}
	}
	return b.Decrypt(c)
}
