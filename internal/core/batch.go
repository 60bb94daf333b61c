package core

import (
	"sort"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
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

// Encrypt encrypts 1 <= len(imgs) <= Best.Batch input images on b into the
// lanes of one cipher tensor under the compiled plan and input scale: the
// client side of every session, local (chet.Session) or remote
// (serve.Client).
func (c *Compiled) Encrypt(b hisa.Backend, imgs ...*tensor.Tensor) *htc.CipherTensor {
	return htc.EncryptTensor(b, c.Plan(), c.Options.Scales, imgs...)
}

// Decrypt recovers the first n images of an encrypted result on b, each in
// the circuit's output shape: the slot grid a kernel left it on (a packed
// Dense's R by G, say) is the CipherTensor's business, not the caller's. A
// tensor of another size (an intermediate from OnNode, a round-tripped
// input) keeps its own shape.
func (c *Compiled) Decrypt(b hisa.Backend, ct *htc.CipherTensor, n int) []*tensor.Tensor {
	shape := c.Circuit.Output.OutShape
	size := 1
	for _, d := range shape {
		size *= d
	}
	ts := htc.DecryptTensor(b, ct, n)
	for i, t := range ts {
		if t.Size() == size {
			ts[i] = t.Reshape(shape...)
		}
	}
	return ts
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
