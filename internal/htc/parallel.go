package htc

import (
	"sync"
	"sync/atomic"

	"chet/internal/circuit"
	"chet/internal/hisa"
)

// ExecOptions configures homomorphic execution. The zero value executes
// serially, which is always safe (including on the compiler's analysis
// backends, which are not goroutine-safe).
type ExecOptions struct {
	// Workers is the number of goroutines the kernels fan independent
	// ciphertext operations across, and — on backends whose instructions
	// have per-limb stages (RNS-CKKS) — the number one instruction fans
	// those stages across. Values <= 1 execute serially. Parallel
	// execution is bit-identical to serial execution on every executable
	// backend: per-output work is computed concurrently but accumulated in
	// the serial program order, and limbs are independent.
	Workers int

	// Constants, when non-nil, is the store the kernels take their encoded
	// weights, masks and biases from on a backend with leveled plaintexts,
	// so each is encoded once per program rather than once per execution.
	// nil encodes every constant per call, as the compiler's analysis and
	// recording runs do.
	Constants *Constants

	// OnNode, when non-nil, observes each circuit node's output tensor as
	// it is computed, on the executing goroutine in circuit order. The
	// telemetry precision profiler uses it to compare every layer against
	// the plaintext oracle; observers must not mutate the tensor.
	OnNode func(n *circuit.Node, out *CipherTensor)

	// tally, set by Execute on a backend that counts mask products (see
	// maskTally), is called once per mask product.
	tally func()
}

// maskTally is the structural capability of a backend that counts the mask
// products it executes: the compiler's recording analysis, which attributes
// them to circuit nodes. Like scoper it is probed through any wrapper chain,
// and like every analysis it runs serially.
type maskTally interface {
	TallyMask()
}

// masked multiplies c by the mask m: a constant at Pm that keeps c's valid
// slots (scaled, for a global pool) and zeroes the rest. Every mask product
// of the runtime goes through it.
func (o ExecOptions) masked(b hisa.Backend, c hisa.Ciphertext, m constant) hisa.Ciphertext {
	if o.tally != nil {
		o.tally()
	}
	return b.MulPlain(c, m.at(c))
}

func (o ExecOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// each runs fn(i) for i in [0, n) on the options' worker pool: the spread
// the kernels hand Backend.RotSum for a backend that runs the unfused
// sequence.
func (o ExecOptions) each(n int, fn func(i int)) { parallelFor(o.workers(), n, fn) }

// parallelFor runs fn(i) for i in [0, n) on up to `workers` goroutines,
// returning when all iterations are done. Iterations are claimed from a
// shared atomic counter, so uneven per-iteration cost balances itself
// (the runtime analogue of the cost model's makespan view). workers <= 1
// or n <= 1 degrades to a plain loop on the calling goroutine.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
