package ring

import (
	"math/rand"
	"sync"
	"testing"
)

func randomPoly(r *Ring, level int, rng *rand.Rand) *Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % q
		}
	}
	return p
}

// TestArenaReuse pins the pooling contract: a returned poly comes back on
// the next lease (same backing buffer, full height), including after its
// level was dropped while on loan.
func TestArenaLeaseCounter(t *testing.T) {
	r := testRing(t, 6, 4)
	base := r.OutstandingPolys()

	// Leases are counted; returns bring the counter back down.
	a := r.GetPoly(3)
	b := r.GetPoly(1)
	if got := r.OutstandingPolys() - base; got != 2 {
		t.Fatalf("outstanding after 2 leases = %d, want 2", got)
	}
	r.PutPoly(a)
	r.PutPoly(b)
	if got := r.OutstandingPolys() - base; got != 0 {
		t.Fatalf("outstanding after returns = %d, want 0", got)
	}

	// A level-dropped lease still checks back in as one lease.
	p := r.GetPoly(3)
	p.DropLevel(1)
	r.PutPoly(p)
	if got := r.OutstandingPolys() - base; got != 0 {
		t.Fatalf("outstanding after dropped-level return = %d, want 0", got)
	}

	// Donated storage (NewPoly entering the pool for the first time) and
	// rejected foreign polys must not drive the counter negative.
	r.PutPoly(r.NewPoly(3))
	r.PutPoly(&Poly{Coeffs: make([][]uint64, 2)})
	if got := r.OutstandingPolys() - base; got != 0 {
		t.Fatalf("outstanding after donations = %d, want 0", got)
	}

	// An unreturned lease is visible — this is the leak signal tests gate on.
	leak := r.GetPoly(2)
	if got := r.OutstandingPolys() - base; got != 1 {
		t.Fatalf("outstanding with a live lease = %d, want 1", got)
	}
	r.PutPoly(leak)
}

func TestArenaReuse(t *testing.T) {
	r := testRing(t, 6, 4)
	p := r.GetPoly(3)
	if len(p.Coeffs) != 4 {
		t.Fatalf("GetPoly(3) rows = %d, want 4", len(p.Coeffs))
	}
	if _, ok := p.contiguous(); !ok {
		t.Fatal("arena poly is not contiguous")
	}
	first := &p.buf[0]
	p.DropLevel(1)
	r.PutPoly(p)
	q := r.GetPoly(3)
	if &q.buf[0] != first {
		t.Error("arena did not reuse the returned backing buffer")
	}
	if len(q.Coeffs) != 4 {
		t.Errorf("recycled poly rows = %d, want full height 4 after DropLevel on loan", len(q.Coeffs))
	}
	for i, row := range q.Coeffs {
		if len(row) != r.N {
			t.Fatalf("row %d length %d, want %d", i, len(row), r.N)
		}
		if &row[0] != &q.buf[i*r.N] {
			t.Fatalf("row %d not re-sliced from backing buffer", i)
		}
	}
}

// TestArenaForeignPolyIgnored verifies that polys assembled row-by-row
// (unmarshaling, Shoup tables) never enter a pool.
func TestArenaForeignPolyIgnored(t *testing.T) {
	r := testRing(t, 5, 2)
	foreign := &Poly{Coeffs: [][]uint64{make([]uint64, r.N), make([]uint64, r.N)}}
	r.PutPoly(foreign) // must not panic or poison the pool
	p := r.GetPoly(1)
	if _, ok := p.contiguous(); !ok {
		t.Fatal("pool handed back a non-contiguous poly")
	}
	r.PutPoly(nil) // nil is a no-op too
}

// TestArenaAliasSafety hammers the arena from concurrent goroutines, each
// writing a distinct sentinel into its leased poly and verifying it after a
// round of ring ops. Run under -race this pins that leases never alias.
func TestArenaAliasSafety(t *testing.T) {
	r := testRing(t, 8, 3)
	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				level := (w + it) % 3
				p := r.GetPoly(level)
				sentinel := uint64(w*1000 + it)
				for i := 0; i <= level; i++ {
					q := r.Moduli[i].Q
					for j := range p.Coeffs[i] {
						p.Coeffs[i][j] = sentinel % q
					}
				}
				r.NTT(p, level)
				r.InvNTT(p, level)
				for i := 0; i <= level; i++ {
					q := r.Moduli[i].Q
					want := sentinel % q
					for j := range p.Coeffs[i] {
						if p.Coeffs[i][j] != want {
							t.Errorf("worker %d iter %d: leased poly corrupted: got %d want %d",
								w, it, p.Coeffs[i][j], want)
							return
						}
					}
				}
				r.PutPoly(p)
			}
		}(w)
	}
	wg.Wait()
}

// TestPolyCopyFastPath checks the contiguous whole-buffer copy against the
// row-by-row path, in both directions and across mixed layouts.
func TestPolyCopyFastPath(t *testing.T) {
	r := testRing(t, 7, 3)
	rng := rand.New(rand.NewSource(7))
	src := randomPoly(r, 2, rng)

	cp := src.CopyNew()
	for i := range src.Coeffs {
		for j := range src.Coeffs[i] {
			if cp.Coeffs[i][j] != src.Coeffs[i][j] {
				t.Fatalf("CopyNew mismatch at (%d,%d)", i, j)
			}
		}
	}
	if &cp.Coeffs[0][0] == &src.Coeffs[0][0] {
		t.Fatal("CopyNew aliases its source")
	}

	foreign := &Poly{Coeffs: make([][]uint64, 3)}
	for i := range foreign.Coeffs {
		foreign.Coeffs[i] = make([]uint64, r.N)
	}
	foreign.Copy(src) // contiguous -> foreign takes the row path
	dst := r.NewPoly(2)
	dst.Copy(foreign) // foreign -> contiguous takes the row path
	for i := range src.Coeffs {
		for j := range src.Coeffs[i] {
			if dst.Coeffs[i][j] != src.Coeffs[i][j] {
				t.Fatalf("mixed-layout Copy mismatch at (%d,%d)", i, j)
			}
		}
	}

	// A level-dropped destination must not blindly memcpy the full buffer.
	drop := src.CopyNew()
	drop.DropLevel(1)
	short := r.NewPoly(1)
	short.Copy(drop)
	for i := 0; i <= 1; i++ {
		for j := range short.Coeffs[i] {
			if short.Coeffs[i][j] != src.Coeffs[i][j] {
				t.Fatalf("level-dropped Copy mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestRingKernelAllocs is the alloc-regression gate for the hot ring
// kernels: a steady-state Mul/Rotate/key-switch pipeline built on these
// primitives must not allocate. ci.sh runs this test explicitly.
func TestRingKernelAllocs(t *testing.T) {
	r := testRing(t, 11, 4)
	level := 3
	rng := rand.New(rand.NewSource(3))
	p := randomPoly(r, level, rng)
	x := randomPoly(r, level, rng)
	out := r.NewPoly(level)
	perm := r.NTTPermutation(r.GaloisElementForRotation(3)) // warm the perm cache
	acc0, acc1 := make([]uint64, r.N), make([]uint64, r.N)
	ext := r.NewBasisExtender([]int{0, 1})

	checks := []struct {
		name string
		fn   func()
	}{
		{"ntt_forward", func() { r.NTT(p, level) }},
		{"ntt_inverse", func() { r.InvNTT(p, level) }},
		{"arena_roundtrip", func() { r.PutPoly(r.GetPoly(level)) }},
		{"poly_copy", func() { out.Copy(p) }},
		{"ks_inner_product", func() {
			r.Moduli[0].KeySwitchInnerProduct(acc0, acc1, x.Coeffs[:2], p.Coeffs[:2], p.Coeffs[2:4], nil)
		}},
		{"ks_inner_product_perm", func() {
			r.Moduli[0].KeySwitchInnerProduct(acc0, acc1, x.Coeffs[:2], p.Coeffs[:2], p.Coeffs[2:4], perm)
		}},
		{"basis_extension", func() {
			s := ext.Prepare(x)
			ext.Row(s, 2, 0, acc0)
			ext.Row(s, 3, 7, acc1)
			r.PutPoly(s)
		}},
		{"automorphism_ntt", func() { r.AutomorphismNTT(p, r.GaloisElementForRotation(3), out, level) }},
		{"add", func() { r.Add(p, x, out, level) }},
		{"mul_coeffs", func() { r.MulCoeffs(p, x, out, level) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(20, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per op, want 0", c.name, n)
		}
	}
}
