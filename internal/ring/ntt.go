package ring

import "math/bits"

// nttTables holds the precomputed twiddle factors for a negacyclic NTT of
// length N modulo one prime.
type nttTables struct {
	q        uint64
	n        int
	psiRev   []uint64 // psi^i in bit-reversed order, psi a primitive 2N-th root
	psiRevS  []uint64 // Shoup form of psiRev
	ipsiRev  []uint64 // psi^{-i} in bit-reversed order
	ipsiRevS []uint64 // Shoup form of ipsiRev
	nInv     uint64   // N^{-1} mod q
	nInvS    uint64   // Shoup form of nInv
	nInvW    uint64   // ipsiRev[1]·N^{-1} mod q, the inverse's last twiddle
	nInvWS   uint64   // Shoup form of nInvW
}

func newNTTTables(q uint64, logN int) *nttTables {
	n := 1 << uint(logN)
	psi := primitiveRoot2N(q, logN)
	ipsi := InvMod(psi, q)

	t := &nttTables{
		q:        q,
		n:        n,
		psiRev:   make([]uint64, n),
		psiRevS:  make([]uint64, n),
		ipsiRev:  make([]uint64, n),
		ipsiRevS: make([]uint64, n),
		nInv:     InvMod(uint64(n), q),
	}
	t.nInvS = MForm(t.nInv, q)

	p, ip := uint64(1), uint64(1)
	shift := 64 - uint(logN)
	for i := 0; i < n; i++ {
		r := int(bits.Reverse64(uint64(i)) >> shift)
		t.psiRev[r] = p
		t.ipsiRev[r] = ip
		p = MulMod(p, psi, q)
		ip = MulMod(ip, ipsi, q)
	}
	for i := 0; i < n; i++ {
		t.psiRevS[i] = MForm(t.psiRev[i], q)
		t.ipsiRevS[i] = MForm(t.ipsiRev[i], q)
	}
	t.nInvW = MulMod(t.ipsiRev[1], t.nInv, q)
	t.nInvWS = MForm(t.nInvW, q)
	return t
}

// nttBlock is the cache-block segment length in coefficients. The butterfly
// loops are blocked so that once a transform's independent sub-problems are
// contiguous and no longer than this, each segment runs to completion while
// resident in L1: the segment data (8 KiB at 1024) plus the twiddle pairs
// its local stages touch (~16 KiB) fit a 32 KiB L1d. Without blocking,
// every stage of an N=8192 transform streams the full 64 KiB row through
// the cache, so the 13 stages move ~13x the row from L2/DRAM; blocked, only
// the first logN-10 stages do.
const nttBlock = 1024

// forward transforms a into the NTT (evaluation) domain in place.
// Cooley-Tukey butterflies with merged negacyclic twist (Longa-Naehrig),
// executed with lazy reduction (Harvey): intermediate values live in
// [0, 4q) and are only brought back to [0, 2q) at the top of each
// butterfly. Consecutive stages run two at a time as radix-4 passes, and
// the last two as one that also brings every output to [0, q), so no pass
// is spent on reduction alone. Inputs must be in [0, q); outputs are in
// [0, q) and bit-identical to forwardStrict. Correctness needs 4q < 2^63,
// guaranteed by the q < 2^61 modulus bound.
//
// The stage loop is cache-blocked: the decimation-in-time recursion makes
// group i of the stage with m groups a contiguous segment that only ever
// splits into its own sub-segments at later stages, so once segments reach
// nttBlock length each one runs all remaining stages locally (heap node
// m+i indexes its twiddles; a sub-group i' of node `node` at local depth m'
// is heap node m'*node+i', which is the same psiRev entry the flat loop
// would read). Per-element butterfly order is unchanged, so blocking is
// bit-identical.
func (t *nttTables) forward(a []uint64) {
	seg := min(nttBlock, t.n)
	mSwitch := t.n / seg
	t.forwardStages(a, 1, 1, mSwitch)
	for s := 0; s < mSwitch; s++ {
		t.forwardSeg(a[s*seg:(s+1)*seg], mSwitch+s)
	}
}

// forwardStages runs the forward stages with m = m0, 2·m0, … below mEnd
// on a, the heap node `node`, two at a time as radix-4 passes where it can.
func (t *nttTables) forwardStages(a []uint64, node, m0, mEnd int) {
	m := m0
	for ; 2*m < mEnd; m <<= 2 {
		tw, tw2 := m*node, 2*m*node
		forwardStage2(a, t.psiRev[tw:tw+m], t.psiRevS[tw:tw+m], t.psiRev[tw2:tw2+2*m], t.psiRevS[tw2:tw2+2*m], t.q)
	}
	if m < mEnd {
		forwardStage(a, t.psiRev[m*node:m*node+m], t.psiRevS[m*node:m*node+m], t.q)
	}
}

// forwardSeg runs all remaining forward stages on one contiguous segment,
// the heap node `node` of the decimation-in-time recursion: its local stage
// with m groups uses twiddles psiRev[m*node+i]. A segment shorter than 4
// (a ring of N = 2) takes its one stage plainly, then a reduction pass.
func (t *nttTables) forwardSeg(a []uint64, node int) {
	n := len(a)
	m := max(n/4, 1)
	t.forwardStages(a, node, 1, m)
	if n < 4 {
		forwardStage(a, t.psiRev[node:node+1], t.psiRevS[node:node+1], t.q)
		for j, v := range a {
			a[j] = reduce4q(v, t.q)
		}
		return
	}
	w1, w1s := t.psiRev[m*node:m*node+m], t.psiRevS[m*node:m*node+m]
	w2, w2s := t.psiRev[2*m*node:2*m*node+2*m], t.psiRevS[2*m*node:2*m*node+2*m]
	forwardTail(a, w1, w1s, w2, w2s, t.q)
}

// forwardStage runs one lazy forward stage over a: len(w) groups of
// 2·dist coefficients, group i butterflied with twiddle w[i].
func forwardStage(a, w, ws []uint64, q uint64) {
	twoQ := q << 1
	dist := len(a) / (2 * len(w))
	ws = ws[:len(w)]
	for i, wi := range w {
		wsi := ws[i]
		x, y := a[2*i*dist:(2*i+1)*dist], a[(2*i+1)*dist:(2*i+2)*dist]
		y = y[:len(x)]
		for j, u := range x { // u in [0, 4q)
			if u >= twoQ {
				u -= twoQ // [0, 2q)
			}
			v := mulModShoupLazy(y[j], wi, wsi, q) // [0, 2q)
			x[j] = u + v                           // [0, 4q)
			y[j] = u + twoQ - v                    // [0, 4q)
		}
	}
}

// forwardStage2 runs two lazy forward stages as one radix-4 pass: the stage
// with len(w) groups of 2·dist and the next with twice as many groups of
// half the distance, whose twiddles are w2.
func forwardStage2(a, w, ws, w2, w2s []uint64, q uint64) {
	twoQ := q << 1
	quarter := len(a) / (4 * len(w))
	ws, w2, w2s = ws[:len(w)], w2[:2*len(w)], w2s[:2*len(w)]
	for i, wi := range w {
		wsi, wa, was, wb, wbs := ws[i], w2[2*i], w2s[2*i], w2[2*i+1], w2s[2*i+1]
		b := a[4*i*quarter : 4*(i+1)*quarter]
		x0, x1, x2, x3 := b[:quarter], b[quarter:2*quarter], b[2*quarter:3*quarter], b[3*quarter:]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		for j, u0 := range x0 {
			u1 := x1[j]
			if u0 >= twoQ {
				u0 -= twoQ
			}
			if u1 >= twoQ {
				u1 -= twoQ
			}
			v := mulModShoupLazy(x2[j], wi, wsi, q)
			u0, u2 := u0+v, u0+twoQ-v
			v = mulModShoupLazy(x3[j], wi, wsi, q)
			u1, u3 := u1+v, u1+twoQ-v
			if u0 >= twoQ {
				u0 -= twoQ
			}
			if u2 >= twoQ {
				u2 -= twoQ
			}
			v = mulModShoupLazy(u1, wa, was, q)
			x0[j], x1[j] = u0+v, u0+twoQ-v
			v = mulModShoupLazy(u3, wb, wbs, q)
			x2[j], x3[j] = u2+v, u2+twoQ-v
		}
	}
}

// forwardTail runs the last two forward stages as one radix-4 pass: each
// group of four takes the dist-2 butterflies with w1's twiddle, then the
// dist-1 butterflies with w2's pair, and leaves its outputs in [0, q).
func forwardTail(a, w1, w1s, w2, w2s []uint64, q uint64) {
	twoQ := q << 1
	for len(a) >= 4 && len(w1) >= 1 && len(w1s) >= 1 && len(w2) >= 2 && len(w2s) >= 2 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		if x0 >= twoQ {
			x0 -= twoQ
		}
		if x1 >= twoQ {
			x1 -= twoQ
		}
		v := mulModShoupLazy(x2, w1[0], w1s[0], q)
		x0, x2 = x0+v, x0+twoQ-v
		v = mulModShoupLazy(x3, w1[0], w1s[0], q)
		x1, x3 = x1+v, x1+twoQ-v
		if x0 >= twoQ {
			x0 -= twoQ
		}
		if x2 >= twoQ {
			x2 -= twoQ
		}
		v = mulModShoupLazy(x1, w2[0], w2s[0], q)
		a[0], a[1] = reduce4q(x0+v, q), reduce4q(x0+twoQ-v, q)
		v = mulModShoupLazy(x3, w2[1], w2s[1], q)
		a[2], a[3] = reduce4q(x2+v, q), reduce4q(x2+twoQ-v, q)
		a, w1, w1s, w2, w2s = a[4:], w1[1:], w1s[1:], w2[2:], w2s[2:]
	}
}

// reduce4q brings a value in [0, 4q) to [0, q).
func reduce4q(v, q uint64) uint64 {
	if v >= q<<1 {
		v -= q << 1
	}
	if v >= q {
		v -= q
	}
	return v
}

// inverse transforms a back to the coefficient domain in place.
// Gentleman-Sande butterflies with lazy reduction (values kept in [0, 2q)
// between stages). Consecutive stages run two at a time as radix-4
// passes, and the last stage multiplies by N^{-1} as it goes — its twiddle
// premultiplied — so no pass is spent on the scaling alone. Inputs must be
// in [0, q); outputs are in [0, q) and bit-identical to inverseStrict.
//
// Blocking mirrors forward: decimation-in-frequency consumes its small
// contiguous groups FIRST, so each nttBlock segment runs its early stages
// to completion in L1 before the remaining large-stride stages execute
// globally. Twiddle indexing is the same heap scheme as forwardSeg.
func (t *nttTables) inverse(a []uint64) {
	seg := min(nttBlock, t.n)
	node0 := t.n / seg
	for s := 0; s < node0; s++ {
		t.inverseSeg(a[s*seg:(s+1)*seg], node0+s)
	}
	if node0 > 1 {
		t.inverseStages(a, 1, node0>>1, 2)
		t.inverseLast(a)
	}
}

// inverseStages runs the inverse stages with m = m0, m0/2, … down to mLow
// on a, the heap node `node`, two at a time as radix-4 passes where it can.
func (t *nttTables) inverseStages(a []uint64, node, m0, mLow int) {
	m := m0
	for ; m/2 >= mLow; m >>= 2 {
		tw, tw2 := m*node, m/2*node
		inverseStage2(a, t.ipsiRev[tw:tw+m], t.ipsiRevS[tw:tw+m], t.ipsiRev[tw2:tw2+m/2], t.ipsiRevS[tw2:tw2+m/2], t.q)
	}
	if m >= mLow {
		inverseStage(a, t.ipsiRev[m*node:m*node+m], t.ipsiRevS[m*node:m*node+m], t.q)
	}
}

// inverseSeg runs the early inverse stages local to one contiguous segment
// (heap node `node`): its local stage with m groups uses ipsiRev[m*node+i].
// A segment that is the whole transform (node 1) also runs the last stage.
// Segments shorter than 8 (rings of N ≤ 4) take their stages plainly.
func (t *nttTables) inverseSeg(a []uint64, node int) {
	m := len(a) >> 1
	if len(a) >= 8 {
		w1, w1s := t.ipsiRev[m*node:m*node+m], t.ipsiRevS[m*node:m*node+m]
		w2, w2s := t.ipsiRev[m/2*node:m/2*node+m/2], t.ipsiRevS[m/2*node:m/2*node+m/2]
		inverseHead(a, w1, w1s, w2, w2s, t.q)
		m >>= 2
	}
	if node > 1 {
		t.inverseStages(a, node, m, 1)
		return
	}
	t.inverseStages(a, node, m, 2)
	t.inverseLast(a)
}

// inverseStage runs one lazy inverse stage over a: len(w) groups of
// 2·dist coefficients, group i butterflied with twiddle w[i].
func inverseStage(a, w, ws []uint64, q uint64) {
	twoQ := q << 1
	dist := len(a) / (2 * len(w))
	ws = ws[:len(w)]
	for i, wi := range w {
		wsi := ws[i]
		x, y := a[2*i*dist:(2*i+1)*dist], a[(2*i+1)*dist:(2*i+2)*dist]
		y = y[:len(x)]
		for j, u := range x { // u, v in [0, 2q)
			v := y[j]
			s := u + v // [0, 4q)
			if s >= twoQ {
				s -= twoQ
			}
			x[j] = s                                     // [0, 2q)
			y[j] = mulModShoupLazy(u+twoQ-v, wi, wsi, q) // [0, 2q)
		}
	}
}

// inverseStage2 runs two lazy inverse stages as one radix-4 pass: the stage
// with len(w) groups of 2·dist and the next with half as many groups of
// twice the distance, whose twiddles are w2.
func inverseStage2(a, w, ws, w2, w2s []uint64, q uint64) {
	twoQ := q << 1
	quarter := len(a) / (4 * len(w2))
	ws, w = ws[:2*len(w2)], w[:2*len(w2)]
	w2s = w2s[:len(w2)]
	for i, wi := range w2 {
		wsi, wa, was, wb, wbs := w2s[i], w[2*i], ws[2*i], w[2*i+1], ws[2*i+1]
		b := a[4*i*quarter : 4*(i+1)*quarter]
		x0, x1, x2, x3 := b[:quarter], b[quarter:2*quarter], b[2*quarter:3*quarter], b[3*quarter:]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		for j, u0 := range x0 { // inputs in [0, 2q)
			u1, u2, u3 := x1[j], x2[j], x3[j]
			y0, y1 := u0+u1, mulModShoupLazy(u0+twoQ-u1, wa, was, q)
			y2, y3 := u2+u3, mulModShoupLazy(u2+twoQ-u3, wb, wbs, q)
			if y0 >= twoQ {
				y0 -= twoQ
			}
			if y2 >= twoQ {
				y2 -= twoQ
			}
			s0, s1 := y0+y2, y1+y3
			if s0 >= twoQ {
				s0 -= twoQ
			}
			if s1 >= twoQ {
				s1 -= twoQ
			}
			x0[j], x1[j] = s0, s1
			x2[j] = mulModShoupLazy(y0+twoQ-y2, wi, wsi, q)
			x3[j] = mulModShoupLazy(y1+twoQ-y3, wi, wsi, q)
		}
	}
}

// inverseHead runs the first two inverse stages as one radix-4 pass: each
// group of four takes the dist-1 butterflies with w1's pair, then the
// dist-2 butterflies with w2's twiddle.
func inverseHead(a, w1, w1s, w2, w2s []uint64, q uint64) {
	twoQ := q << 1
	for len(a) >= 4 && len(w1) >= 2 && len(w1s) >= 2 && len(w2) >= 1 && len(w2s) >= 1 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1 := x0+x1, mulModShoupLazy(x0+twoQ-x1, w1[0], w1s[0], q)
		y2, y3 := x2+x3, mulModShoupLazy(x2+twoQ-x3, w1[1], w1s[1], q)
		if y0 >= twoQ {
			y0 -= twoQ
		}
		if y2 >= twoQ {
			y2 -= twoQ
		}
		s0, s1 := y0+y2, y1+y3
		if s0 >= twoQ {
			s0 -= twoQ
		}
		if s1 >= twoQ {
			s1 -= twoQ
		}
		a[0], a[1] = s0, s1
		a[2] = mulModShoupLazy(y0+twoQ-y2, w2[0], w2s[0], q)
		a[3] = mulModShoupLazy(y1+twoQ-y3, w2[0], w2s[0], q)
		a, w1, w1s, w2, w2s = a[4:], w1[2:], w1s[2:], w2[1:], w2s[1:]
	}
}

// inverseLast runs the last inverse stage — one group, twiddle ipsiRev[1]
// — with N^{-1} folded in: the sum is multiplied by N^{-1} and the
// difference by ipsiRev[1]·N^{-1}, and both leave in [0, q).
func (t *nttTables) inverseLast(a []uint64) {
	q := t.q
	twoQ := q << 1
	x, y := a[:len(a)/2], a[len(a)/2:]
	y = y[:len(x)]
	for j, u := range x {
		v := y[j]
		s := mulModShoupLazy(u+v, t.nInv, t.nInvS, q)
		if s >= q {
			s -= q
		}
		d := mulModShoupLazy(u+twoQ-v, t.nInvW, t.nInvWS, q)
		if d >= q {
			d -= q
		}
		x[j], y[j] = s, d
	}
}

// forwardStrict is the fully-reduced reference forward transform (every
// butterfly output in [0, q)). It is retained as the oracle the lazy
// forward is tested against.
func (t *nttTables) forwardStrict(a []uint64) {
	q := t.q
	n := t.n
	dist := n
	for m := 1; m < n; m <<= 1 {
		dist >>= 1
		for i := 0; i < m; i++ {
			w := t.psiRev[m+i]
			ws := t.psiRevS[m+i]
			base := 2 * i * dist
			for j := base; j < base+dist; j++ {
				u := a[j]
				v := MulModShoup(a[j+dist], w, ws, q)
				a[j] = AddMod(u, v, q)
				a[j+dist] = SubMod(u, v, q)
			}
		}
	}
}

// inverseStrict is the fully-reduced reference inverse transform, the
// oracle the lazy inverse is tested against.
func (t *nttTables) inverseStrict(a []uint64) {
	q := t.q
	n := t.n
	dist := 1
	for m := n >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			w := t.ipsiRev[m+i]
			ws := t.ipsiRevS[m+i]
			base := 2 * i * dist
			for j := base; j < base+dist; j++ {
				u := a[j]
				v := a[j+dist]
				a[j] = AddMod(u, v, q)
				a[j+dist] = MulModShoup(SubMod(u, v, q), w, ws, q)
			}
		}
		dist <<= 1
	}
	for j := range a {
		a[j] = MulModShoup(a[j], t.nInv, t.nInvS, q)
	}
}
