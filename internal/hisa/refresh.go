package hisa

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Refresher wraps a bootstrap-capable backend and keeps every ciphertext's
// multiplicative budget above a floor: before each budget-consuming
// operation (ciphertext, plaintext, and scalar multiplications) it
// bootstraps any operand whose remaining budget has fallen below the floor.
// Fresh encryptions are dropped to the backend's fresh level, so runtime
// budgets track the compiler's placement model from the first op — the
// number of bootstraps the Refresher performs on a compiled circuit equals
// the number the placement pass predicted.
//
// The Refresher frees every intermediate it creates (bootstrapped operands,
// pre-drop encryptions) and never frees caller-owned handles, preserving the
// backend's ownership discipline. Like the backends it wraps, it is safe for
// concurrent op execution; the bootstrap tally is atomic.
type Refresher struct {
	Interposer
	floor int

	bootstraps atomic.Int64
	// minHeadroom is the low-water mark of (budget - floor) observed at
	// refresh decisions — how close any lineage has come to (or gone below)
	// the refresh trigger. Sentinel math.MaxInt64 means "no multiplicative
	// op yet".
	minHeadroom atomic.Int64
}

// NewRefresher wraps inner, which must be bootstrap-capable (possibly
// through other wrappers — a Meter below the Refresher tallies the
// bootstraps it triggers). floor is the minimum budget, in levels, an
// operand must have before a multiplicative op; 0 selects 1, the smallest
// budget that still admits the op's own rescale.
func NewRefresher(inner Backend, floor int) (*Refresher, error) {
	if _, ok := AsBootstrap(inner); !ok {
		return nil, fmt.Errorf("hisa: backend %s is not bootstrap-capable", inner.Name())
	}
	if floor <= 0 {
		floor = 1
	}
	r := &Refresher{floor: floor}
	r.Interposer = NewInterposer(inner, "refresh", r.refreshOperands, r.afterOp)
	r.minHeadroom.Store(math.MaxInt64)
	return r, nil
}

// Bootstraps reports how many bootstraps the Refresher has performed
// (triggered refreshes plus explicit Bootstrap calls).
func (r *Refresher) Bootstraps() int { return int(r.bootstraps.Load()) }

// Floor reports the configured minimum budget.
func (r *Refresher) Floor() int { return r.floor }

// MinHeadroom reports the low-water mark of (budget - floor) seen at
// refresh decisions — the closest any multiplicative operand has come to
// the refresh trigger (zero or negative means a refresh fired). ok is
// false until the first multiplicative op.
func (r *Refresher) MinHeadroom() (headroom int, ok bool) {
	v := r.minHeadroom.Load()
	if v == math.MaxInt64 {
		return 0, false
	}
	return int(v), true
}

// observeHeadroom folds one refresh decision into the low-water mark.
func (r *Refresher) observeHeadroom(h int64) {
	for {
		cur := r.minHeadroom.Load()
		if h >= cur {
			return
		}
		if r.minHeadroom.CompareAndSwap(cur, h) {
			return
		}
	}
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
	r.observeHeadroom(int64(budget - r.floor))
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
		r.bootstraps.Add(1)
	case OpEncrypt:
		op.Out = r.DropToFresh(op.Out)
	}
}
