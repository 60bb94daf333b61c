package hisa

import "sync/atomic"

// OpCounts is a point-in-time tally of HISA instruction executions by kind
// (a snapshot returned by Meter.Counts), under the Interposer's accounting
// rules. Rotations are counted as executed primitive steps by the wrapped
// backend's own decomposition, so a backend without the exact key reports
// the higher power-of-two step count. OpRelin counts the key-switches that
// bring ciphertext-ciphertext products back to degree 1, wherever they run
// (inside Mul, as explicit Relinearize calls, inside fused
// RelinearizeRescale calls). One OpBootstrap is one (very expensive)
// instruction: boot.Spec.Ops itemizes its interior.
type OpCounts [NumOps]int

// Rotations is the number of primitive rotation steps in either direction.
func (o OpCounts) Rotations() int { return o[OpRotLeft] + o[OpRotRight] }

// Total returns the total number of homomorphic operations (excluding
// encode/decode and MaxRescale queries, which are metadata-only; and
// excluding relinearizations, which are already counted inside Mul).
func (o OpCounts) Total() int {
	total := 0
	for k, n := range o {
		switch OpKind(k) {
		case OpEncode, OpDecode, OpMaxRescale, OpRelin:
		default:
			total += n
		}
	}
	return total
}

// Meter counts the instructions that flow through a Backend. It implements
// Backend, so kernels and the compiler are oblivious to it. Counters are
// atomic, so a Meter may wrap a backend that executes ops from many worker
// goroutines concurrently; Counts returns a snapshot.
type Meter struct {
	Interposer
	counts [NumOps]atomic.Int64
	// stepsOf mirrors the step decomposition of the inner backend so
	// multi-step rotations are counted faithfully.
	stepsOf func(x int) int
}

// NewMeter wraps inner. stepsOf may be nil, in which case each RotLeft or
// RotRight call counts as one rotation.
func NewMeter(inner Backend, stepsOf func(x int) int) *Meter {
	m := &Meter{stepsOf: stepsOf}
	m.Interposer = NewInterposer(inner, "meter", nil, m.count)
	return m
}

func (m *Meter) count(op *Op) {
	n := 1
	if m.stepsOf != nil {
		switch op.Kind {
		case OpRotLeft:
			n = m.stepsOf(op.Rot)
		case OpRotRight:
			n = m.stepsOf(-op.Rot)
		}
	}
	m.counts[op.Kind].Add(int64(n))
}

// Counts returns a consistent-enough snapshot of the tallies: each entry is
// read atomically, so concurrent mutation never corrupts a value (reading
// while ops are in flight may observe some ops and not others).
func (m *Meter) Counts() OpCounts {
	var o OpCounts
	for k := range o {
		o[k] = int(m.counts[k].Load())
	}
	return o
}
