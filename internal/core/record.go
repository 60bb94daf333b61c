package core

import (
	"fmt"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
)

// NodeCost is one circuit node's share of the recording run: the
// instructions its kernel issued (layout conversions the node demanded
// included, as in a runtime trace's node scopes) and their cost-model price.
type NodeCost struct {
	Kind circuit.OpKind
	Name string
	// Rotations counts primitive rotations; Relin counts ciphertext-
	// ciphertext multiplications, each carrying a relinearization.
	Rotations, MulPlain, Rescale, Relin int
	// Cost is the node's estimated cost (microseconds), bootstraps it
	// triggered included.
	Cost float64
}

// record executes the winning policy's circuit once more, serially, under an
// analysis priced at the selected parameters, and attaches what only a run at
// those parameters can tell: the per-node table (comp.Nodes), the key plan
// (comp.Keys, RNS only) and, for a bootstrap compilation, the placement plan
// with every refresh attributed to the circuit node and the instruction that
// triggered it (comp.BootPlan).
// The run replays the parameter pass's refresh trigger, so its placements
// are the ones that sized the chain.
func record(c *circuit.Circuit, comp *Compiled) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recording run aborted: %v", r)
		}
	}()
	opts := comp.Options
	cfg := comp.bootConfig()
	a := recordAnalysis(comp, cfg)

	// One observer above the Refresher tallies every instruction for the
	// node table and sees each one complete right after the refreshes it
	// triggered: those placements take its mnemonic.
	var counts hisa.OpCounts
	tagged := 0
	b := hisa.NewInterposer(a.backend(), "record", nil, func(op *hisa.Op) {
		counts[op.Kind]++
		for ps := a.BootPlacements(); tagged < len(ps); tagged++ {
			ps[tagged].Op = op.Kind.String()
		}
	})

	var placements []BootPlacement
	attributed := 0
	attribute := func(node int, name string) {
		for ps := a.BootPlacements(); attributed < len(ps); attributed++ {
			p := ps[attributed]
			p.Node, p.Name = node, name
			placements = append(placements, p)
		}
	}
	var prev hisa.OpCounts
	prevCost := 0.0
	onNode := func(n *circuit.Node, _ *htc.CipherTensor) {
		name := fmt.Sprintf("%v:%s", n.Kind, n.Name)
		attribute(n.ID, name)
		if n.Kind == circuit.OpInput {
			return // issues no instruction
		}
		comp.Nodes = append(comp.Nodes, NodeCost{
			Kind: n.Kind, Name: n.Name,
			Rotations: counts.Rotations() - prev.Rotations(),
			MulPlain:  counts[hisa.OpMulPlain] - prev[hisa.OpMulPlain],
			Rescale:   counts[hisa.OpRescale] - prev[hisa.OpRescale],
			Relin:     counts[hisa.OpRelin] - prev[hisa.OpRelin],
			Cost:      a.totalCost - prevCost,
		})
		prev, prevCost = counts, a.totalCost
	}

	img := tensor.New(c.Input.OutShape...)
	enc := htc.EncryptTensor(&b, comp.Plan(), opts.Scales, img)
	htc.Execute(&b, c, enc, comp.Best.Policy, opts.Scales, htc.ExecOptions{OnNode: onNode})
	if opts.Scheme == SchemeRNS {
		comp.Keys = keyPlan(comp, a, cfg)
	}
	if cfg == nil {
		return nil
	}
	attribute(-1, "(output)")

	total := 0.0
	for _, p := range placements {
		total += p.Cost
	}
	comp.BootPlan = &BootReport{
		Spec:       cfg.Spec,
		Window:     cfg.Window,
		Floor:      cfg.Floor,
		FreshLevel: cfg.Window,
		Depth:      cfg.Spec.Depth(),
		Placements: placements,
		EstCost:    total,
	}
	return nil
}

// recordAnalysis is the analysis the recording run executes against: priced
// at the selected parameters, with bootstrap accounting under cfg (nil:
// none).
func recordAnalysis(comp *Compiled, cfg *BootConfig) *Analysis {
	opts := comp.Options
	return NewAnalysis(AnalysisConfig{
		Scheme:        opts.Scheme,
		Slots:         1 << uint(comp.Best.LogN-1),
		RNSPrimeBits:  opts.RNSPrimeBits,
		MagMarginBits: opts.MagMarginBits,
		CostLogQ:      comp.Best.LogQ,
		CostPrimes:    float64(len(comp.Best.RNSChainBits)),
		CostSpecial:   comp.Best.SpecialPrimes,
		Model:         opts.CostModel,
		Batch:         opts.Batch,
		Bootstrap:     cfg,
	})
}

// keyPlan is the recording run's key plan at the compiled chain: every key
// the program applies, at the highest level it applies it at — batched or
// not, the plan is exactly the program's rotations. Only the library-default
// power-of-two keys of PowerOfTwoRotationsOnly, the paper's baseline, span
// the full chain instead. The bootstrap pipeline's keys are the backend's to
// add (hisa.RNSConfig.KeyShape).
func keyPlan(comp *Compiled, a *Analysis, cfg *BootConfig) *hisa.KeyPlan {
	top := len(comp.Best.RNSChainBits) - 1
	fresh := top
	if cfg != nil {
		fresh = cfg.Window
	}
	plan := a.KeyPlan(fresh)
	slots := 1 << uint(comp.Best.LogN-1)
	if comp.Options.PowerOfTwoRotationsOnly {
		plan.Rotations = map[int]int{}
		for p := 1; p < slots; p <<= 1 {
			plan.Rotations[p] = top
		}
	}
	return plan
}
