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
	// ciphertext multiplications, each carrying a relinearization. Masks
	// counts the plaintext multiplications that zero invalid slots: a node
	// with none dropped its mask (htc's dirty-slot rule) or never had one.
	Rotations, MulPlain, Rescale, Relin, Masks int
	// Factor is what the node did with the factors circuit.Fold carries:
	// absorbed Factor.In when Factor.Out is 1, passed it on when they are
	// equal, set a new one otherwise.
	Factor circuit.Factor
	// Cost is the node's estimated cost (microseconds), bootstraps it
	// triggered included.
	Cost float64
	// Consts counts the program's constants this node reads first, and
	// ConstBytes what their plaintexts hold at their levels, (ℓ+1)·N·8
	// bytes each (none on a target without levels): a constant several
	// nodes share is billed once, to its first reader.
	Consts     int
	ConstBytes int64
}

// record executes the winning policy's circuit once more, serially, under
// the analysis its parameter pass ran (newAnalysis at the winner's ring
// degree), and attaches what only the winner's parameters tell: the per-node
// table (comp.Nodes), each node's tally priced at the winner's chain and α,
// the key plan (comp.Keys, RNS only) and, for a bootstrap compilation, the
// placement plan with every refresh attributed to the circuit node and the
// instruction that triggered it (comp.BootPlan).
// The run replays the parameter pass's refresh trigger, so its placements
// are the ones that sized the chain. It records the program every execution
// replays (comp.Code): the analysis records below the Refresher, so every
// refresh is a bootstrap instruction.
func record(c *circuit.Circuit, comp *Compiled) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recording run aborted: %v", r)
		}
	}()
	opts := comp.Options
	cfg := comp.bootConfig()
	a := newAnalysis(&opts, comp.Best.LogN, cfg)
	fresh := comp.Best.freshState()
	a.rec, a.top = htc.NewRecording(), -1
	if opts.Scheme == SchemeRNS {
		a.top = freshLevel(comp, cfg)
	}
	below := a.backend()

	// One observer above the Refresher tallies every instruction for the
	// node table and sees each one complete right after the refreshes it
	// triggered: those placements take its mnemonic.
	var counts hisa.OpCounts
	tagged := 0
	b := hisa.NewInterposer(below, "record", nil, func(op *hisa.Op) {
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
	prevMasks := 0
	row := map[int32]int{} // comp.Nodes' index of each circuit node
	reg := func(h hisa.Ciphertext) int32 { return a.ct(h).reg }
	onNode := func(n *circuit.Node, out *htc.CipherTensor) {
		a.rec.EndNode(n.ID, out, reg)
		name := fmt.Sprintf("%v:%s", n.Kind, n.Name)
		attribute(n.ID, name)
		if n.Kind == circuit.OpInput {
			return // issues no instruction
		}
		row[int32(n.ID)] = len(comp.Nodes)
		comp.Nodes = append(comp.Nodes, NodeCost{
			Kind: n.Kind, Name: n.Name,
			Rotations: counts.Rotations() - prev.Rotations(),
			MulPlain:  counts[hisa.OpMulPlain] - prev[hisa.OpMulPlain],
			Rescale:   counts[hisa.OpRescale] - prev[hisa.OpRescale],
			Relin:     counts[hisa.OpRelin] - prev[hisa.OpRelin],
			Masks:     a.masks - prevMasks,
			Factor:    comp.Program.Factors[n.ID],
			Cost:      a.price(&a.ops, fresh),
		})
		prev, prevMasks, a.ops = counts, a.masks, tally{}
	}

	img := tensor.New(c.Input.OutShape...)
	enc := htc.EncryptTensor(&b, comp.Plan(), opts.Scales, img)
	htc.Execute(&b, c, enc, comp.Best.Policy, opts.Scales, htc.ExecOptions{OnNode: onNode})
	comp.Code = a.rec.Program(c, enc)
	comp.Code.Counts = counts
	comp.Code.Counts[hisa.OpBootstrap] += len(a.BootPlacements())
	billed := make([]bool, len(comp.Code.Consts))
	levels := comp.Code.EncodedLevels(1 << (comp.Best.LogN - 1))
	for i, in := range comp.Code.Instrs {
		comp.Code.EachConst(i, func(k *int32) {
			if billed[*k] {
				return
			}
			billed[*k] = true
			n := &comp.Nodes[row[in.Node]]
			n.Consts++
			if level := levels[*k]; level >= 0 {
				n.ConstBytes += int64(level+1) << comp.Best.LogN * 8
			}
		})
	}
	if opts.Scheme == SchemeRNS {
		comp.Keys = keyPlan(comp, a, cfg)
	}
	if cfg == nil {
		return nil
	}
	attribute(-1, "(output)")

	var one tally
	one.add(costBootstrap, 0)
	each := a.price(&one, fresh)
	for i := range placements {
		placements[i].Cost = each
	}
	comp.BootPlan = &BootReport{
		Spec:       cfg.Spec,
		Window:     cfg.Window,
		Floor:      cfg.Floor,
		FreshLevel: cfg.Window,
		Depth:      cfg.Spec.Depth(),
		Placements: placements,
		EstCost:    each * float64(len(placements)),
	}
	comp.BootPlan.MinHeadroom, _ = below.(*hisa.Refresher).MinHeadroom()
	return nil
}

// keyPlan is the recording run's key plan at the compiled chain: every key
// the program applies, at the highest level it applies it at — batched or
// not, the plan is exactly the program's rotations. Only the library-default
// power-of-two keys of PowerOfTwoRotationsOnly, the paper's baseline, span
// the full chain instead. The bootstrap pipeline's keys are the backend's to
// add (hisa.RNSConfig.KeyShape).
func keyPlan(comp *Compiled, a *Analysis, cfg *BootConfig) *hisa.KeyPlan {
	top := len(comp.Best.RNSChainBits) - 1
	plan := a.KeyPlan(freshLevel(comp, cfg))
	slots := 1 << uint(comp.Best.LogN-1)
	if comp.Options.PowerOfTwoRotationsOnly {
		plan.Rotations = map[int]int{}
		for p := 1; p < slots; p <<= 1 {
			plan.Rotations[p] = top
		}
	}
	return plan
}

// freshLevel is the level an input ciphertext starts the program at: the top
// of the chain, or the bootstrap window's top.
func freshLevel(comp *Compiled, cfg *BootConfig) int {
	if cfg != nil {
		return cfg.Window
	}
	return len(comp.Best.RNSChainBits) - 1
}
