package hisa

import (
	"fmt"
	"math"
	"math/big"
)

// Refresher wraps a bootstrap-capable backend and keeps every ciphertext's
// multiplicative budget above a floor: before each budget-consuming
// operation (ciphertext, plaintext, and scalar multiplications) it
// bootstraps any operand whose remaining budget has fallen below the floor.
// Fresh encryptions are dropped to the backend's fresh level, so budgets
// track the compiler's placement model from the first op. It is the
// compiler's placement trigger: the recording run executes under it, and
// the bootstraps and drops it issues are instructions of the compiled
// program, which every execution replays without it.
//
// The Refresher frees every intermediate it creates (bootstrapped operands,
// pre-drop encryptions) and never frees caller-owned handles, preserving the
// backend's ownership discipline. Like the analysis it drives, it runs
// serially.
type Refresher struct {
	Interposer
	floor      int
	bootstraps int
	// minHeadroom is the low-water mark of (budget - floor) observed at
	// refresh decisions — how close any lineage has come to (or gone below)
	// the refresh trigger. Sentinel math.MaxInt means "no multiplicative op
	// yet".
	minHeadroom int
}

// NewRefresher wraps inner, which must be bootstrap-capable (possibly
// through other wrappers — a Meter below the Refresher tallies the
// bootstraps it triggers). floor is the minimum budget, in levels, an
// operand must have before a multiplicative op; 0 selects 1, the smallest
// budget that still admits the op's own rescale.
func NewRefresher(inner Backend, floor int) (*Refresher, error) {
	if !inner.BootstrapCapable() {
		return nil, fmt.Errorf("hisa: backend %s is not bootstrap-capable", inner.Name())
	}
	if floor <= 0 {
		floor = 1
	}
	r := &Refresher{floor: floor, minHeadroom: math.MaxInt}
	r.Interposer = NewInterposer(inner, "refresh", r.refreshOperands, r.afterOp)
	return r, nil
}

// Bootstraps reports how many bootstraps the Refresher has performed
// (triggered refreshes plus explicit Bootstrap calls).
func (r *Refresher) Bootstraps() int { return r.bootstraps }

// MinHeadroom reports the low-water mark of (budget - floor) seen at
// refresh decisions — the closest any multiplicative operand has come to
// the refresh trigger (zero or negative means a refresh fired). ok is
// false until the first multiplicative op.
func (r *Refresher) MinHeadroom() (headroom int, ok bool) {
	return r.minHeadroom, r.minHeadroom != math.MaxInt
}

// refreshOperands is the before-hook: the ciphertext operands of a
// multiplication (ciphertext, plaintext or scalar; relinearized or not) are
// refreshed when below the floor, an operand that appears twice only once.
// The budget decision happens at the multiplication, so a deferred
// Relinearize or RelinearizeRescale sees operands that already passed it.
func (r *Refresher) refreshOperands(op *Op) {
	switch op.Kind {
	case OpMul, OpMulPlain, OpMulScalar:
	default:
		return
	}
	first := op.In
	op.In = r.refreshed(first)
	if op.In2 == first {
		op.In2 = op.In
	} else if op.In2 != nil {
		op.In2 = r.refreshed(op.In2)
	}
}

// refreshed bootstraps c when its budget is below the floor; the Interposer
// frees the replacement after the multiplication.
func (r *Refresher) refreshed(c Ciphertext) Ciphertext {
	budget := r.BudgetOf(c)
	r.minHeadroom = min(r.minHeadroom, budget-r.floor)
	if budget >= r.floor {
		return c
	}
	return r.Bootstrap(c)
}

// afterOp tallies bootstraps, triggered and explicit alike, and drops every
// fresh encryption to the backend's fresh level (see the type comment).
func (r *Refresher) afterOp(op *Op) {
	switch op.Kind {
	case OpBootstrap:
		r.bootstraps++
	case OpEncrypt:
		op.Out = r.DropToFresh(op.Out)
	}
}

// RotSum refreshes, once, each source that a weighted term reads below the
// floor: rotation leaves a budget unchanged, so the refreshed source serves
// every product the unfused sequence would have refreshed one rotated copy
// at a time. It observes each weighted term's headroom as that sequence
// would; the sums then run fused, their weighted terms reading the
// refreshed sources and their unit terms the originals.
func (r *Refresher) RotSum(srcs []Ciphertext, sums [][]Term, divide func(Ciphertext) *big.Int) []Ciphertext {
	n := len(srcs)
	var copyOf map[int]int // source → its refreshed copy's index in srcs
	for o, terms := range sums {
		for i, t := range terms {
			if t.Plain == nil && t.F == 0 {
				continue
			}
			budget := r.BudgetOf(srcs[t.Src])
			r.minHeadroom = min(r.minHeadroom, budget-r.floor)
			if budget >= r.floor {
				continue
			}
			if copyOf == nil {
				copyOf = map[int]int{}
				srcs = append([]Ciphertext(nil), srcs...)
				sums = append([][]Term(nil), sums...)
			}
			j, ok := copyOf[t.Src]
			if !ok {
				j = len(srcs)
				srcs = append(srcs, r.Bootstrap(srcs[t.Src]))
				copyOf[t.Src] = j
			}
			if &sums[o][0] == &terms[0] { // still the caller's
				sums[o] = append([]Term(nil), terms...)
			}
			sums[o][i].Src = j
		}
	}
	outs := r.Interposer.RotSum(srcs, sums, divide)
	for _, c := range srcs[n:] {
		r.inner.Free(c)
	}
	return outs
}
