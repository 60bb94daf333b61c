package hisa

import (
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// Term is one summand of a sum of rotations (Backend.RotSum): the source srcs[Src]
// rotated left by Rot slots, times a weight — the plaintext Plain when it is
// non-nil, otherwise the scalar X at scale F (MulScalar's operands) when F
// is non-zero, otherwise 1.
type Term struct {
	Src   int
	Rot   int
	Plain Plaintext
	X, F  float64
}

// RotLeftMany rotates c left by every amount in ks as one RotSum of single
// unit-weight terms: element i is RotLeft(c, ks[i]), bit for bit on every
// backend, with one decomposition of c shared by all amounts on RNS.
func RotLeftMany(b Backend, c Ciphertext, ks []int) []Ciphertext {
	sums := make([][]Term, len(ks))
	for i, k := range ks {
		sums[i] = []Term{{Rot: k}}
	}
	return b.RotSum([]Ciphertext{c}, sums, nil)
}

// SumRotations lists, per source, the rotations the unfused sequence of a
// RotSum issues: each amount that is not a multiple of slots, once per
// distinct amount mod slots, as the first term drawing on it wrote it. Each
// term's amount is reduced once and compared with its source's reduced
// amounts so far, which the kernels keep to a filter's taps or a sum's
// copies: no set is built per call.
func SumRotations(slots, nsrc int, sums [][]Term) [][]int {
	rots := make([][]int, nsrc)
	reduced := make([][]int, nsrc)
	for _, terms := range sums {
	next:
		for _, t := range terms {
			k := t.Rot % slots
			if k < 0 {
				k += slots
			}
			if k == 0 {
				continue
			}
			for _, r := range reduced[t.Src] {
				if r == k {
					continue next
				}
			}
			reduced[t.Src] = append(reduced[t.Src], k)
			rots[t.Src] = append(rots[t.Src], t.Rot)
		}
	}
	return rots
}

// rescaleEach is RotSum's division on a backend that runs the pair: outs,
// the sums, each rescaled by the divisor divide (nil: none) picks for it.
func rescaleEach(b Backend, outs []Ciphertext, divide func(Ciphertext) *big.Int) []Ciphertext {
	if divide == nil {
		return outs
	}
	for o, c := range outs {
		if d := divide(c); d.Cmp(bigOne) != 0 {
			outs[o] = b.Rescale(c, d)
			b.Free(c)
		}
	}
	return outs
}

// RotSumUnfused computes the sums with b's own instructions — the sequence a
// RotSum stands for. First the rotations, each distinct one once, by one
// RotLeft each. Then every sum in term order: each term's MulPlain or
// MulScalar (none for a unit weight), added to the running sum. Products and
// partial sums are freed as they are consumed, rotations once every sum is
// done; an output that would be a source, or a rotation another output
// already is, is a Copy.
func RotSumUnfused(b Backend, srcs []Ciphertext, sums [][]Term) []Ciphertext {
	return rotSumUnfused(b, srcs, sums, 1)
}

// rotSumUnfused is RotSumUnfused with the rotations, then the sums, spread
// across up to workers goroutines: Ref's intra-instruction parallelism.
// Every sum runs on one goroutine in term order, so results do not depend
// on it.
func rotSumUnfused(b Backend, srcs []Ciphertext, sums [][]Term, workers int) []Ciphertext {
	slots := b.Slots()
	norm := func(k int) int { return ((k % slots) + slots) % slots }
	type job struct{ src, k int }
	var jobs []job
	for s, ks := range SumRotations(slots, len(srcs), sums) {
		for _, k := range ks {
			jobs = append(jobs, job{s, k})
		}
	}
	rotations := make([]Ciphertext, len(jobs))
	Spread(workers, len(jobs), func(i int) { rotations[i] = b.RotLeft(srcs[jobs[i].src], jobs[i].k) })
	rotated := make([]map[int]Ciphertext, len(srcs))
	for i, j := range jobs {
		if rotated[j.src] == nil {
			rotated[j.src] = map[int]Ciphertext{}
		}
		rotated[j.src][norm(j.k)] = rotations[i]
	}
	shared := map[Ciphertext]bool{}
	for _, m := range rotated {
		for _, c := range m {
			shared[c] = true
		}
	}
	outs := make([]Ciphertext, len(sums))
	fresh := make([]bool, len(sums)) // outs[o] is a product or a sum, not a source or rotation
	Spread(workers, len(sums), func(o int) {
		var acc Ciphertext
		for _, t := range sums[o] {
			x := srcs[t.Src]
			if k := norm(t.Rot); k != 0 {
				x = rotated[t.Src][k]
			}
			owned := true
			switch {
			case t.Plain != nil:
				x = b.MulPlain(x, t.Plain)
			case t.F != 0:
				x = b.MulScalar(x, t.X, t.F)
			default:
				owned = false
			}
			if acc == nil {
				acc, fresh[o] = x, owned
				continue
			}
			sum := b.Add(acc, x)
			if fresh[o] {
				b.Free(acc)
			}
			if owned {
				b.Free(x)
			}
			acc, fresh[o] = sum, true
		}
		outs[o] = acc
	})
	for o, acc := range outs {
		switch {
		case fresh[o]:
		case shared[acc]:
			delete(shared, acc) // this output owns the rotation now
		default:
			outs[o] = b.Copy(acc)
		}
	}
	for c := range shared {
		b.Free(c)
	}
	return outs
}

// reportRotSum hands the after-hook the instructions RotSumUnfused would
// have issued for a sum the wrapped backend computed whole, then rescaled
// by divs (nil, or a divisor per output, 1: none), the call's duration
// split evenly between them: one rotl per distinct rotation, then per sum
// each term's mulplain or mulscalar, an add per term after the first and
// its rescale. The last op of each sum carries the sum's output.
func (ip *Interposer) reportRotSum(srcs []Ciphertext, sums [][]Term, outs []Ciphertext, divs []*big.Int, start time.Time, dur time.Duration) {
	rots := SumRotations(ip.Slots(), len(srcs), sums)
	divided := func(o int) bool { return divs != nil && divs[o].Cmp(bigOne) != 0 }
	n := 0
	for _, ks := range rots {
		n += len(ks)
	}
	for o, terms := range sums {
		for i, t := range terms {
			if t.Plain != nil || t.F != 0 {
				n++
			}
			if i > 0 {
				n++
			}
		}
		if divided(o) {
			n++
		}
	}
	if n == 0 {
		return
	}
	per := dur / time.Duration(n)
	emit := func(op Op) {
		op.Start, op.Dur = start, per
		start = start.Add(per)
		ip.after(&op)
	}
	for s, ks := range rots {
		for _, k := range ks {
			emit(Op{Kind: OpRotLeft, In: srcs[s], Rot: k})
		}
	}
	for o, terms := range sums {
		last := len(terms) - 1
		for i, t := range terms {
			var out, mulOut Ciphertext
			if i == last && !divided(o) {
				out = outs[o]
			}
			if i == 0 {
				mulOut = out // a lone product is the sum
			}
			switch {
			case t.Plain != nil:
				emit(Op{Kind: OpMulPlain, In: srcs[t.Src], Out: mulOut})
			case t.F != 0:
				emit(Op{Kind: OpMulScalar, In: srcs[t.Src], Out: mulOut})
			}
			if i > 0 {
				emit(Op{Kind: OpAdd, Out: out})
			}
		}
		if divided(o) {
			emit(Op{Kind: OpRescale, Out: outs[o]})
		}
	}
}

// Spread runs fn(i) for i in [0, n) on up to workers goroutines, claiming
// indices from a shared counter so uneven work balances itself; workers <= 1
// runs them in order on the calling goroutine. A panic is raised again on
// the calling goroutine once every index has run: the lowest index's, the
// one the serial order raises.
func Spread(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed, failure := n, any(nil)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if i < failed {
					failed, failure = i, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				run(i)
			}
		}()
	}
	wg.Wait()
	if failed < n {
		panic(failure)
	}
}
