package core

import (
	"sort"

	"chet/internal/circuit"
	"chet/internal/htc"
)

// Plan returns the physical layout plan the compiled circuit executes under,
// including the batch capacity baked into the parameters. Every consumer of
// a Compiled (local sessions, the serving client and server) must derive its
// plan here so batched geometry agrees on both sides of the wire.
func (c *Compiled) Plan() htc.Plan {
	plan := htc.PlanFor(c.Circuit, c.Best.Policy)
	plan.Batch = c.Best.Batch
	plan.Complex = c.Options.Complex
	return plan
}

// mergeRotations unions two sorted-or-unsorted rotation lists into one
// sorted, deduplicated key set.
func mergeRotations(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, k := range append(append([]int{}, a...), b...) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// SelectBatchCapacity finds the largest power-of-two batch size <= maxBatch
// that compiles without growing the ring degree beyond the unbatched
// choice: batching is free amortization only while the per-image footprint
// still fits a lane of the same ring, so the search doubles B and stops at
// the first capacity that fails to compile or forces a larger N. With
// opts.Complex the per-lane footprint halves the lane count, so the search
// naturally lands on roughly twice the real-packing capacity.
func SelectBatchCapacity(c *circuit.Circuit, opts Options, maxBatch int) (int, error) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	opts.Batch = 1
	base, err := Compile(c, opts)
	if err != nil {
		return 0, err
	}
	best := 1
	for b := 2; b <= maxBatch; b *= 2 {
		opts.Batch = b
		comp, err := Compile(c, opts)
		if err != nil || comp.Best.LogN > base.Best.LogN {
			break
		}
		best = b
	}
	return best, nil
}
