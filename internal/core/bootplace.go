package core

import "chet/internal/boot"

// This file is the bootstrap-placement pass. A circuit deeper than any
// secure modulus chain cannot compile at all without bootstrapping; with
// Options.Bootstrap the compiler instead lays out a bootstrap chain
// (boot.Spec.ChainBits: base prime, a working window of data levels, the
// pipeline's own levels, the CoeffToSlot prime on top) and executes the
// Analysis interpretation under a hisa.Refresher: whenever a multiplicative
// operand's remaining level falls below the floor, the Refresher bootstraps
// it, and the analysis records a placement, resets the operand to the fresh
// level, and tallies one bootstrap, which the cost model prices as its full
// instruction inventory (boot.Spec.Ops, bootCost) once the chain is known.
// The recording run's placements are bootstrap instructions of the compiled
// program (record), so the runtime performs exactly the bootstraps the
// compiler placed.

// BootstrapOptions enables and configures compiler-placed bootstrapping
// (Options.Bootstrap). Requires SchemeRNS.
type BootstrapOptions struct {
	// Window is the number of working levels between bootstraps — the data
	// band of the modulus chain. Larger windows bootstrap less often but
	// need a taller (less secure per ring degree) chain. Default 4.
	Window int
	// Degree overrides the Chebyshev degree of the sine approximation
	// (default boot.DefaultDegree).
	Degree int
	// Floor is the minimum level a multiplicative operand must hold;
	// operands below it are bootstrapped first. Default 1 — the smallest
	// budget that still admits the op's own rescale.
	Floor int
}

// BootConfig is the analysis-side bootstrap configuration: the derived
// arithmetic spec plus the placement parameters (newAnalysis).
type BootConfig struct {
	Spec   boot.Spec
	Window int
	Floor  int
}

// BootPlacement is one compiler-placed bootstrap — a row of the
// chet-compile -explain placement table.
type BootPlacement struct {
	// Index is the placement ordinal in execution order.
	Index int
	// Node is the circuit node whose kernel triggered the placement
	// (-1 until the recording pass attributes it); Name is its
	// "kind:name" label.
	Node int
	Name string
	// Op is the mnemonic (hisa.OpKind) of the HISA instruction whose
	// operand fell below the floor.
	Op string
	// LevelBefore is the operand's remaining level at the trigger;
	// LevelAfter is the fresh level it returns at (= Window).
	LevelBefore, LevelAfter int
	// Cost is the cost-model estimate of this bootstrap (microseconds).
	Cost float64
}

// BootReport is the bootstrap-placement plan attached to a compilation
// (Compiled.BootPlan).
type BootReport struct {
	// Spec is the bootstrap arithmetic the chain was laid out for; the
	// runtime backend is constructed against the same spec.
	Spec boot.Spec
	// Window, Floor mirror the options; FreshLevel is the level every
	// bootstrap (and every dropped fresh encryption) returns at.
	Window, Floor, FreshLevel int
	// Depth is the number of chain levels one bootstrap consumes.
	Depth int
	// Placements in execution order, attributed to circuit nodes.
	Placements []BootPlacement
	// EstCost is the summed placement estimate (microseconds).
	EstCost float64
	// MinHeadroom is the recording run's low-water mark of levels above the
	// floor at a refresh decision: zero or below where a refresh fired.
	MinHeadroom int
}

// bootSpecFor derives the bootstrap arithmetic for a ring degree under the
// compilation options: full slot packing (the compiler always packs N/2
// slots), working primes sized like the candidate chain moduli.
func bootSpecFor(logN int, opts *Options) (boot.Spec, error) {
	spec, err := boot.DeriveSpec(logN, logN-1, opts.Bootstrap.Degree)
	if err != nil {
		return boot.Spec{}, err
	}
	spec.PrimeBits = opts.RNSPrimeBits
	return spec, nil
}

// bootConfig rebuilds the analysis bootstrap configuration for a finished
// compilation; nil when bootstrapping was not requested.
func (c *Compiled) bootConfig() *BootConfig {
	if c.Options.Bootstrap == nil {
		return nil
	}
	spec, err := bootSpecFor(c.Best.LogN, &c.Options)
	if err != nil {
		// The winning LogN was derived through the same call during the
		// parameter search; it cannot fail here.
		panic("core: bootstrap spec for compiled ring: " + err.Error())
	}
	return &BootConfig{Spec: spec, Window: c.Options.Bootstrap.Window, Floor: c.Options.Bootstrap.Floor}
}

// bootCost prices one bootstrap's instruction inventory under the cost
// model at the full-chain modulus state — a conservative upper bound, since
// the pipeline starts at the top of the chain and descends.
func bootCost(spec boot.Spec, m CostModel, n float64, st state) float64 {
	ops := spec.Ops()
	return float64(ops.Rotations)*m.Rotate(n, st) +
		float64(ops.PlainMuls)*m.PlainMul(n, st) +
		float64(ops.CtMuls)*m.CtMul(n, st) +
		float64(ops.ScalarMuls)*m.ScalarMul(n, st) +
		float64(ops.Rescales)*m.Rescale(n, st)
}
