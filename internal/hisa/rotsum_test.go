package hisa

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"chet/internal/ring"
)

// testSums is the sum set of the parity tests: two sources; plaintext,
// scalar and unit weights; unrotated terms, a negative amount, an amount
// past the slot count, a rotation shared by two sums, a repeated single
// rotation, and 3 — two steps where only power-of-two keys exist.
func testSums(b Backend) ([]Ciphertext, [][]Term) {
	slots := b.Slots()
	a := b.Encrypt(b.Encode(rv(slots, 1, 41), testScale))
	c := b.Encrypt(b.Encode(rv(slots, 1, 42), testScale))
	pa, pc := b.Encode(rv(slots, 1, 43), wScale), b.Encode(rv(slots, 0.5, 44), wScale)
	return []Ciphertext{a, c}, testTerms(slots, pa, pc)
}

// wScale is the scale of testSums' weights.
const wScale = 1 << 30

// testTerms is testSums' sum set over sources 0 and 1 and plaintexts pa and
// pc.
func testTerms(slots int, pa, pc Plaintext) [][]Term {
	return [][]Term{
		{{Src: 0, Rot: 1, Plain: pa}, {Src: 1, Rot: -2, Plain: pc}, {Src: 0, Plain: pc}},
		{{Src: 0, Rot: 8, X: 0.5, F: wScale}, {Src: 1, Rot: 1 + slots, X: -1.25, F: wScale}, {Src: 1, X: 2, F: wScale}},
		{{Src: 0, Rot: 1}, {Src: 0, Rot: 3}, {Src: 1}},
		{{Src: 1, Rot: 2}},
		{{Src: 1, Rot: 2}},
		{{Src: 0}},
	}
}

// complexSums is testSums with source 0 and its plaintext pa complex, or
// with source 1 and pc complex: the first mixes complex and real operands
// in every sum, the second starts sums real and adds complex terms to them.
func complexSums(b Backend, second bool) ([]Ciphertext, [][]Term) {
	slots := b.Slots()
	cv := func(seed int64) []complex128 {
		re, im := rv(slots, 1, seed), rv(slots, 1, seed+100)
		m := make([]complex128, slots)
		for i := range m {
			m[i] = complex(re[i], im[i])
		}
		return m
	}
	cp := func(seed int64) Plaintext {
		re, im := rv(slots, 1, seed), rv(slots, 0.5, seed+100)
		if _, ok := b.(*SimBackend); ok {
			return &simPT{vals: re, ivals: im, scale: wScale}
		}
		return &refPT{vals: re, ivals: im, scale: wScale}
	}
	a, c := b.EncryptC(cv(41), testScale), b.Encrypt(b.Encode(rv(slots, 1, 42), testScale))
	pa, pc := cp(43), b.Encode(rv(slots, 0.5, 44), wScale)
	if second {
		a, c = b.Encrypt(b.Encode(rv(slots, 1, 41), testScale)), b.EncryptC(cv(42), testScale)
		pa, pc = b.Encode(rv(slots, 1, 43), wScale), cp(44)
	}
	return []Ciphertext{a, c}, testTerms(slots, pa, pc)
}

// TestSumRotations: per source, every amount that is not a multiple of the
// slot count, each distinct one mod slots once, as its first term wrote it.
func TestSumRotations(t *testing.T) {
	const slots = 16
	got := SumRotations(slots, 3, [][]Term{
		{{Src: 0, Rot: -1}, {Src: 0, Rot: 15}, {Src: 1, Rot: 16}, {Src: 0}},
		{{Src: 0, Rot: 31}, {Src: 1, Rot: -17}, {Src: 0, Rot: 2}, {Src: 1, Rot: 15}, {Src: 1, Rot: -32}},
	})
	if want := [][]int{{-1, 2}, {-17}, nil}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SumRotations = %v, want %v", got, want)
	}
}

// unfusedByHand is testSums' sequence written out op by op, as the kernels
// issued it before RotSum existed.
func unfusedByHand(b Backend, srcs []Ciphertext, sums [][]Term) []Ciphertext {
	a, c := srcs[0], srcs[1]
	pa, pc := sums[0][0].Plain, sums[0][1].Plain
	slots := b.Slots()
	return []Ciphertext{
		b.Add(b.Add(b.MulPlain(b.RotLeft(a, 1), pa), b.MulPlain(b.RotLeft(c, -2), pc)), b.MulPlain(a, pc)),
		b.Add(b.Add(b.MulScalar(b.RotLeft(a, 8), 0.5, wScale), b.MulScalar(b.RotLeft(c, 1+slots), -1.25, wScale)), b.MulScalar(c, 2, wScale)),
		b.Add(b.Add(b.RotLeft(a, 1), b.RotLeft(a, 3)), c),
		b.RotLeft(c, 2),
		b.RotLeft(c, 2),
		b.Copy(a),
	}
}

// TestRotSumRefSimBitIdentical checks the backends that do not fuse: RotSum
// is the unfused sequence there, and its results are bit-identical to
// the same ops written out by hand — on Sim, which computes each output in
// one accumulator, also with complex sources and plaintexts, with
// rotations that take several key-switch steps (power-of-two keys only) and
// with a divide, which must equal the sequence then Rescale; every case at
// 1 and 4 intra-instruction workers.
func TestRotSumRefSimBitIdentical(t *testing.T) {
	pow2 := map[int]bool{}
	for k := 1; k < 512; k <<= 1 {
		pow2[k] = true
	}
	sim := func(rotations map[int]bool) Backend {
		return NewSimBackend(SimParams{LogN: 10, LogQ: 240, Rotations: rotations, Seed: 9})
	}
	divide := func(b Backend) func(Ciphertext) *big.Int {
		return func(c Ciphertext) *big.Int {
			if b.Scale(c) <= testScale*1.0001 {
				return big.NewInt(1)
			}
			return b.MaxRescale(c, big.NewInt(1<<41))
		}
	}
	realSums := func(b Backend) ([]Ciphertext, [][]Term) { return testSums(b) }
	complexA := func(b Backend) ([]Ciphertext, [][]Term) { return complexSums(b, false) }
	complexC := func(b Backend) ([]Ciphertext, [][]Term) { return complexSums(b, true) }
	for _, tc := range []struct {
		name   string
		b      Backend
		sums   func(Backend) ([]Ciphertext, [][]Term)
		divide bool
	}{
		{"ref", NewRefBackend(512), realSums, false},
		{"ref/complex", NewRefBackend(512), complexA, false},
		{"sim", sim(nil), realSums, false},
		{"sim/complex a, pa", sim(nil), complexA, false},
		{"sim/complex c, pc", sim(nil), complexC, false},
		{"sim/power-of-two keys", sim(pow2), realSums, false},
		{"sim/power-of-two keys, complex", sim(pow2), complexC, false},
		{"sim/divide", sim(nil), realSums, true},
		{"sim/divide, power-of-two keys, complex", sim(pow2), complexA, true},
	} {
		for _, workers := range []int{1, 4} {
			b := tc.b
			b.(interface{ SetIntraOpWorkers(int) }).SetIntraOpWorkers(workers)
			srcs, sums := tc.sums(b)
			want := unfusedByHand(b, srcs, sums)
			var div func(Ciphertext) *big.Int
			if tc.divide {
				div = divide(b)
				for o, c := range want {
					if d := div(c); d.Cmp(big.NewInt(1)) != 0 {
						want[o] = b.Rescale(c, d)
					}
				}
			}
			got := b.RotSum(srcs, sums, div)
			for o := range want {
				if !reflect.DeepEqual(got[o], want[o]) {
					t.Fatalf("%s, %d workers: sum %d differs from the unfused sequence", tc.name, workers, o)
				}
			}
			if got[3] == got[4] || got[5] == srcs[0] {
				t.Fatalf("%s: RotSum outputs alias each other or a source", tc.name)
			}
		}
	}
}

// TestRotSumSimOverCapacity: a sum whose product outgrows the modulus
// panics on Sim with the message the unfused sequence's first such product
// raises — here the second term of the first sum, ahead of a larger
// overflow in the second — at 1 and 4 workers.
func TestRotSumSimOverCapacity(t *testing.T) {
	b := NewSimBackend(SimParams{LogN: 10, LogQ: 100, Seed: 9})
	slots := b.Slots()
	a := b.Encrypt(b.Encode(rv(slots, 1, 41), testScale))
	large := make([]float64, slots)
	for i := range large {
		large[i] = 1e12
	}
	srcs := []Ciphertext{a}
	sums := [][]Term{
		{{Rot: 1, Plain: b.Encode(rv(slots, 1, 43), wScale)}, {Rot: 2, Plain: b.Encode(large, wScale)}},
		{{Rot: 3, X: 1e20, F: wScale}},
	}
	panicOf := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	want := panicOf(func() { RotSumUnfused(b, srcs, sums) })
	if want == nil {
		t.Fatal("the unfused sequence did not overflow")
	}
	for _, workers := range []int{1, 4} {
		b.SetIntraOpWorkers(workers)
		if got := panicOf(func() { b.RotSum(srcs, sums, nil) }); got != want {
			t.Fatalf("%d workers: RotSum panicked with %v, want %v", workers, got, want)
		}
	}
}

// TestRotSumOpCountsMatchUnfused checks the accounting contract: a Meter
// over the fused RNS instruction tallies exactly what a Meter tallies when
// the unfused sequence runs through it op by op on the same backend —
// distinct rotations once, in primitive steps, products per weighted term,
// additions per extra term — and a Meter over Ref agrees.
func TestRotSumOpCountsMatchUnfused(t *testing.T) {
	b := newRNSTestBackend(t, nil) // power-of-two keys: 3 takes two steps
	slots := b.Slots()
	stepsOf := func(x int) int { return len(RotationSteps(x, slots, func(k int) bool { return b.provisioned[k] })) }
	count := func(inner Backend, fused bool) OpCounts {
		m := NewMeter(inner, stepsOf)
		srcs, sums := testSums(inner)
		before := m.Counts()
		if fused {
			m.RotSum(srcs, sums, nil)
		} else {
			RotSumUnfused(m, srcs, sums)
		}
		after := m.Counts()
		for k := range after {
			after[k] -= before[k]
		}
		return after
	}
	fused, unfused, ref := count(b, true), count(b, false), count(NewRefBackend(slots), true)
	if fused != unfused || fused != ref {
		t.Fatalf("op counts: fused %v, unfused %v, ref %v", fused, unfused, ref)
	}
	// Rotations: a by 1, 8, 3 (two steps); c by −2 (= slots−2: many steps),
	// 1+slots (= 1), 2.
	want := 1 + 1 + 2 + stepsOf(-2) + 1 + 1
	if fused.Rotations() != want || fused[OpMulPlain] != 3 || fused[OpMulScalar] != 3 || fused[OpAdd] != 6 {
		t.Fatalf("op counts %v: want %d rotations, 3 mulplain, 3 mulscalar, 6 add", fused, want)
	}
}

// TestRotSumRNSMatchesUnfused checks the RNS instruction against the
// unfused sequence on the same backend — within the rounding bound of
// internal/ckks TestRotSumMatchesUnfused for weighted sums, bit-identical
// for single unit-weight rotations (off-plan multi-step ones included) and
// unrotated sums — and that four limb workers reproduce one bit for bit.
func TestRotSumRNSMatchesUnfused(t *testing.T) {
	b := newRNSTestBackend(t, nil)
	n := float64(b.Params().N())
	srcs, sums := testSums(b)
	fused := b.RotSum(srcs, sums, nil)
	unfused := RotSumUnfused(b, srcs, sums)
	for _, o := range []int{3, 4, 5} {
		equalRNSCiphertexts(t, b, "single-term sum", fused[o], unfused[o])
	}
	for o, ws := range []float64{1 + 0.5 + 0.5, 0.5 + 1.25 + 2, 3} {
		bound := (1 + ws) * n * (n + 1) / testScale
		got, want := b.Decode(b.Decrypt(fused[o])), b.Decode(b.Decrypt(unfused[o]))
		for j := range got {
			if d := got[j] - want[j]; d > bound || d < -bound {
				t.Fatalf("sum %d slot %d: %g from the unfused sequence, bound %g", o, j, d, bound)
			}
		}
	}
	b.SetIntraOpWorkers(4)
	defer b.SetIntraOpWorkers(1)
	for o, c := range b.RotSum(srcs, sums, nil) {
		equalRNSCiphertexts(t, b, "4 limb workers", c, fused[o])
	}
}

// TestRotSumRNSKeyBelowLevel checks the other off-plan case: a rotation
// whose key stops below its source's level is served at the key's level,
// counted as a key-level miss, and takes the whole call to that level.
func TestRotSumRNSKeyBelowLevel(t *testing.T) {
	params := newRNSTestBackend(t, nil).Params()
	top := params.MaxLevel()
	b := NewRNSBackend(RNSConfig{Params: params, PRNG: ring.NewTestPRNG(7), Keys: &KeyPlan{Rotations: map[int]int{1: top, 2: 1}, Relin: top, Conjugate: -1}})
	slots := b.Slots()
	va := rv(slots, 1, 45)
	a := b.Encrypt(b.Encode(va, testScale))
	out := b.RotSum([]Ciphertext{a}, [][]Term{{{Rot: 1}, {Rot: 2}}, {{Rot: 1}}}, nil)
	if b.KeyLevelMisses() != 1 {
		t.Fatalf("key-level misses = %d, want 1", b.KeyLevelMisses())
	}
	for o, c := range out {
		if lvl := b.LevelOf(c); lvl != 1 {
			t.Fatalf("sum %d at level %d, want the key's level 1", o, lvl)
		}
	}
	got := b.Decode(b.Decrypt(out[0]))
	for j := range got {
		if d := got[j] - va[(j+1)%slots] - va[(j+2)%slots]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("slot %d of rot1(a)+rot2(a) off by %g", j, d)
		}
	}
}

// rescaleSums is testSums plus a mask-weighted base-4 fold step of source 0
// — {0, 1, 2, 3} weighted by a 0/1 mask — and divide, the rescale rule of
// the tests below: every output at its weighted scale is divided by the
// top prime (its power-of-two stand-in on the mocks), the unit-weight ones
// are left alone. divide tallies its calls in order.
func rescaleSums(b Backend) ([]Ciphertext, [][]Term, func(Ciphertext) *big.Int, *[]float64) {
	srcs, sums := testSums(b)
	mask := make([]float64, b.Slots())
	for j := 0; j < len(mask); j += 4 {
		mask[j] = 1
	}
	pm := b.Encode(mask, 1<<30)
	sums = append(sums, []Term{{Plain: pm}, {Rot: 1, Plain: pm}, {Rot: 2, Plain: pm}, {Rot: 3, Plain: pm}})
	var seen []float64
	divide := func(c Ciphertext) *big.Int {
		seen = append(seen, b.Scale(c))
		if b.Scale(c) <= testScale*1.0001 {
			return big.NewInt(1)
		}
		return b.MaxRescale(c, big.NewInt(1<<41))
	}
	return srcs, sums, divide, &seen
}

// TestRotSumRescaleMatchesPair: RotSum with a divide is bit-identical to RotSum
// then Rescale by the divisor divide picks, on Ref and Sim (which run the
// pair) and on RNS, where the division rides in each output's ModDown —
// off-plan multi-step rotations included (power-of-two keys: 3 and −2 take
// several steps) — and divide sees every output once, in order, at its
// scale before the division. Four limb workers reproduce one.
func TestRotSumRescaleMatchesPair(t *testing.T) {
	rns := newRNSTestBackend(t, nil)
	for _, b := range []Backend{NewRefBackend(512), NewSimBackend(SimParams{LogN: 10, LogQ: 240, Seed: 9}), rns} {
		srcs, sums, divide, seen := rescaleSums(b)
		got := b.RotSum(srcs, sums, divide)
		want := b.RotSum(srcs, sums, nil)
		if len(*seen) != len(sums) {
			t.Fatalf("%s: divide called %d times for %d outputs", b.Name(), len(*seen), len(sums))
		}
		for o := range want {
			if (*seen)[o] != b.Scale(want[o]) {
				t.Fatalf("%s: divide saw output %d at scale %g, want %g", b.Name(), o, (*seen)[o], b.Scale(want[o]))
			}
			if d := divide(want[o]); d.Cmp(big.NewInt(1)) != 0 {
				want[o] = b.Rescale(want[o], d)
			}
			if b == rns {
				equalRNSCiphertexts(t, rns, fmt.Sprintf("output %d", o), got[o], want[o])
			} else if !reflect.DeepEqual(got[o], want[o]) {
				t.Fatalf("%s: output %d differs from RotSum then Rescale", b.Name(), o)
			}
		}
	}
	rns.SetIntraOpWorkers(4)
	defer rns.SetIntraOpWorkers(1)
	srcs, sums, divide, _ := rescaleSums(rns)
	one := rns.RotSum(srcs, sums, divide)
	rns.SetIntraOpWorkers(1)
	for o, c := range rns.RotSum(srcs, sums, divide) {
		equalRNSCiphertexts(t, rns, "4 limb workers", one[o], c)
	}
}

// TestRotSumRescaleKeyBelowLevel: with a rotation key that stops below its
// source's level, the off-plan rotation takes the call to the key's level,
// and the division happens there, bit-identical to the pair.
func TestRotSumRescaleKeyBelowLevel(t *testing.T) {
	params := newRNSTestBackend(t, nil).Params()
	top := params.MaxLevel()
	b := NewRNSBackend(RNSConfig{Params: params, PRNG: ring.NewTestPRNG(7), Keys: &KeyPlan{Rotations: map[int]int{1: top, 2: 1}, Relin: top, Conjugate: -1}})
	a := b.Encrypt(b.Encode(rv(b.Slots(), 1, 45), testScale))
	pw := b.Encode(rv(b.Slots(), 1, 46), 1<<30)
	sums := [][]Term{{{Rot: 1, Plain: pw}, {Rot: 2, Plain: pw}}, {{Rot: 1, X: 0.5, F: 1 << 30}}}
	divide := func(c Ciphertext) *big.Int { return b.MaxRescale(c, big.NewInt(1<<41)) }
	got := b.RotSum([]Ciphertext{a}, sums, divide)
	want := b.RotSum([]Ciphertext{a}, sums, nil)
	for o := range want {
		if lvl := b.LevelOf(got[o]); lvl != 0 {
			t.Fatalf("output %d at level %d, want the key's level 1 less the division", o, lvl)
		}
		equalRNSCiphertexts(t, b, fmt.Sprintf("output %d", o), got[o], b.Rescale(want[o], divide(want[o])))
	}
}

// TestRotSumRescaleOpCounts: a Meter counts RotSum with a divide as the RotSum it
// runs plus one rescale per divided output, and the MaxRescale queries
// divide makes through it — what RotSum then the rescale decisions count.
func TestRotSumRescaleOpCounts(t *testing.T) {
	b := newRNSTestBackend(t, nil)
	slots := b.Slots()
	stepsOf := func(x int) int { return len(RotationSteps(x, slots, func(k int) bool { return b.provisioned[k] })) }
	count := func(fused bool) OpCounts {
		m := NewMeter(b, stepsOf)
		srcs, sums, _, _ := rescaleSums(m)
		divide := func(c Ciphertext) *big.Int {
			if m.Scale(c) <= testScale*1.0001 {
				return big.NewInt(1)
			}
			return m.MaxRescale(c, big.NewInt(1<<41))
		}
		before := m.Counts()
		if fused {
			m.RotSum(srcs, sums, divide)
		} else {
			for _, c := range m.RotSum(srcs, sums, nil) {
				if d := divide(c); d.Cmp(big.NewInt(1)) != 0 {
					m.Rescale(c, d)
				}
			}
		}
		after := m.Counts()
		for k := range after {
			after[k] -= before[k]
		}
		return after
	}
	fused, pair := count(true), count(false)
	if fused != pair {
		t.Fatalf("op counts: fused %v, pair %v", fused, pair)
	}
	if fused[OpRescale] != 3 || fused[OpMaxRescale] != 3 || fused[OpMulPlain] != 3+4 {
		t.Fatalf("op counts %v: want 3 rescales, 3 maxrescale queries, 7 mulplain", fused)
	}
}
