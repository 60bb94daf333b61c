package htc

import (
	"fmt"

	"chet/internal/circuit"
	"chet/internal/hisa"
)

// LayoutPolicy is one of the four layout strategies CHET's data-layout
// selection pass searches over (Section 5.3).
type LayoutPolicy int

// The pruned layout search space of the paper.
const (
	// PolicyHW: every operation uses the HW layout.
	PolicyHW LayoutPolicy = iota
	// PolicyCHW: every operation uses the CHW layout.
	PolicyCHW
	// PolicyHWConv: convolutions in HW, everything else in CHW.
	PolicyHWConv
	// PolicyCHWFC: HW until the first fully connected layer, CHW after.
	PolicyCHWFC
)

// AllPolicies lists the search space in the paper's order.
var AllPolicies = []LayoutPolicy{PolicyHW, PolicyCHW, PolicyHWConv, PolicyCHWFC}

func (p LayoutPolicy) String() string {
	switch p {
	case PolicyHW:
		return "HW"
	case PolicyCHW:
		return "CHW"
	case PolicyHWConv:
		return "HW-conv/CHW-rest"
	case PolicyCHWFC:
		return "CHW-fc/HW-before"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// inputLayout returns the layout the circuit input should be encrypted in
// under the policy.
func (p LayoutPolicy) inputLayout() Layout {
	if p == PolicyCHW {
		return LayoutCHW
	}
	return LayoutHW
}

// opLayout returns the layout an operation's inputs should be in.
func (p LayoutPolicy) opLayout(kind circuit.OpKind, seenDense bool) Layout {
	switch p {
	case PolicyHW:
		return LayoutHW
	case PolicyCHW:
		return LayoutCHW
	case PolicyHWConv:
		if kind == circuit.OpConv2D {
			return LayoutHW
		}
		return LayoutCHW
	case PolicyCHWFC:
		if seenDense || kind == circuit.OpDense {
			return LayoutCHW
		}
		return LayoutHW
	default:
		panic("htc: unknown layout policy")
	}
}

// RequiredApron computes the physical apron (zero border) the input layout
// must reserve so every padded convolution in the circuit pulls in zeros:
// the maximum over operations of pad times the cumulative stride at that
// point.
func RequiredApron(c *circuit.Circuit) int {
	cumStride := make(map[int]int, len(c.Nodes))
	apron := 0
	for _, n := range c.Nodes {
		s := 1
		for _, in := range n.Inputs {
			if cumStride[in.ID] > s {
				s = cumStride[in.ID]
			}
		}
		switch n.Kind {
		case circuit.OpConv2D:
			if need := n.Pad * s; need > apron {
				apron = need
			}
			s *= n.Stride
		case circuit.OpAvgPool2D, circuit.OpSumPool2D:
			s *= n.Stride
		case circuit.OpPad2D:
			if need := n.Pad * s; need > apron {
				apron = need
			}
		}
		cumStride[n.ID] = s
	}
	return apron
}

// PlanFor returns the input-encryption plan implied by a circuit and policy.
func PlanFor(c *circuit.Circuit, policy LayoutPolicy) Plan {
	return Plan{Layout: policy.inputLayout(), Apron: RequiredApron(c)}
}

// convert brings t into the requested layout (no-op when already there).
func convert(b hisa.RunsBackend, t *CipherTensor, want Layout, sc Scales, opts ExecOptions) *CipherTensor {
	if t.Layout == want {
		return t
	}
	if want == LayoutCHW {
		return ToCHW(b, t)
	}
	return ToHW(b, t, sc, opts)
}

// ExecOptions configures a run of the kernels (Execute). The zero value
// executes as the compiler's analyses do.
type ExecOptions struct {
	// OnNode, when non-nil, observes each circuit node's output tensor as
	// it is computed, in circuit order. The compiler's recording run uses
	// it to split the program by node and to record each node's output
	// (Recording.EndNode), which the telemetry precision profiler reads
	// from a replay (Program.ExecuteNodes); observers must not mutate the
	// tensor.
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

// masked multiplies c by the mask m: a plaintext at Pm that keeps c's valid
// slots (scaled, for a global pool) and zeroes the rest. Every mask product
// of the kernels goes through it.
func (o ExecOptions) masked(b hisa.Backend, c hisa.Ciphertext, m hisa.Plaintext) hisa.Ciphertext {
	o.tallyMask()
	return b.MulPlain(c, m)
}

// tallyMask announces one mask: a product of its own or the weight of a
// sum's terms.
func (o ExecOptions) tallyMask() {
	if o.tally != nil {
		o.tally()
	}
}

// foldMasked folds c along each (n, stride) axis in turn (foldStrided) and
// multiplies by the mask m, which becomes the weight of the last fold's sum:
// m ⊙ Σ rot(x) = Σ m ⊙ rot(x), no constant and no level more. Only a
// unit-weight sum takes a mask so: under scalar taps it would need a
// plaintext per tap. With no axis of two elements, m is a product of its
// own.
func (o ExecOptions) foldMasked(b hisa.Backend, c hisa.Ciphertext, m hisa.Plaintext, axes ...[2]int) hisa.Ciphertext {
	last := -1
	for i, ax := range axes {
		if ax[0] > 1 {
			last = i
		}
	}
	if last < 0 {
		return o.masked(b, c, m)
	}
	o.tallyMask()
	for i, ax := range axes[:last+1] {
		var w hisa.Plaintext
		if i == last {
			w = m
		}
		c = foldStrided(b, c, ax[0], ax[1], w)
	}
	return c
}

// intraOpParallel is the structural capability of a backend whose single
// instructions spread their work across goroutines: RNS-CKKS its per-limb
// stages, the mocks a sum of rotations' terms. It is not an instruction, so
// it is probed through the wrapper chain rather than forwarded.
type intraOpParallel interface {
	SetIntraOpWorkers(n int)
}

// scoper is the structural capability a tracing backend
// (telemetry.Tracer) exposes for attributing ops to the circuit node that
// issued them (Program.Execute). It is probed structurally, through any
// wrapper chain, so htc carries no dependency on the telemetry package.
type scoper interface {
	StartScope(label string) func()
}

// Execute runs the circuit's kernels on backend b, serially: the
// compiler's analyses and its recording run, which turns the instructions
// into a Program that every execution replays. The input
// must have been encrypted with PlanFor(c, policy). All layout conversions
// demanded by the policy are inserted automatically.
//
// The circuit must be in the form the compiler's rewrite (circuit.Fold) leaves
// it in: every activation monic (a = 1) and every pool a window sum. The
// output tensor's invalid slots are zero; an intermediate's are zero only
// where a reader needs them so (see cleanOutputs).
func Execute(b hisa.RunsBackend, c *circuit.Circuit, input *CipherTensor, policy LayoutPolicy, sc Scales, opts ExecOptions) *CipherTensor {
	if t, ok := hisa.FindCapability[maskTally](b); ok {
		opts.tally = t.TallyMask
	}
	clean := cleanOutputs(c, policy)
	results := make(map[int]*CipherTensor, len(c.Nodes))
	seenDense := false
	arg := func(n *circuit.Node, i int) *CipherTensor {
		t, ok := results[n.Inputs[i].ID]
		if !ok {
			panic(fmt.Sprintf("htc: node %q input not yet computed (circuit not topological?)", n.Name))
		}
		return convert(b, t, policy.opLayout(n.Kind, seenDense), sc, opts)
	}
	// args returns all of a node's inputs on one slot grid: a Dense picks
	// its output grid from its input's span, so two operands of one shape may
	// arrive on different grids. The operand computed last keeps its grid —
	// in a residual block it is the deepest, and the level a regrid costs
	// the skip connection is one the block has spent anyway.
	args := func(n *circuit.Node) []*CipherTensor {
		ins := make([]*CipherTensor, len(n.Inputs))
		last := 0
		for i, in := range n.Inputs {
			ins[i] = arg(n, i)
			if in.ID > n.Inputs[last].ID {
				last = i
			}
		}
		for i := range ins {
			if !sameGrid(ins[last], ins[i]) {
				ins[i] = regrid(b, ins[i], ins[last], sc, opts)
			}
		}
		return ins
	}

	for _, n := range c.Nodes {
		var out *CipherTensor
		// A node's layout conversions (arg) are its own instructions.
		switch n.Kind {
		case circuit.OpInput:
			if input.Layout != policy.inputLayout() {
				panic(fmt.Sprintf("htc: input encrypted in %v but policy %v wants %v",
					input.Layout, policy, policy.inputLayout()))
			}
			out = input
		case circuit.OpConv2D:
			out = Conv2D(b, arg(n, 0), n.Weights, n.Bias, n.Stride, n.Pad, clean[n.ID], sc, opts)
		case circuit.OpDense:
			out = Dense(b, arg(n, 0), n.Weights, n.Bias, sc, opts)
			seenDense = true
		case circuit.OpSumPool2D:
			out = SumPool2D(b, arg(n, 0), n.Window, n.Stride, clean[n.ID], sc, opts)
		case circuit.OpGlobalAvgPool2D:
			out = GlobalAvgPool2D(b, arg(n, 0), sc, opts)
		case circuit.OpActivation:
			if n.ActA != 1 {
				panic(fmt.Sprintf("htc: activation %q has a = %g: fold the circuit first (circuit.Fold)", n.Name, n.ActA))
			}
			out = Activation(b, arg(n, 0), n.ActB, sc)
		case circuit.OpPolyEval:
			out = PolyEval(b, arg(n, 0), n.Coeffs, sc)
		case circuit.OpBatchNorm:
			out = BatchNorm(b, arg(n, 0), n.Weights, n.Bias, sc)
		case circuit.OpAdd:
			ins := args(n)
			out = Add(b, ins[0], ins[1])
		case circuit.OpConcat:
			out = Concat(b, sc, opts, args(n)...)
		case circuit.OpFlatten:
			out = results[n.Inputs[0].ID] // metadata-only
		case circuit.OpPad2D:
			out = Pad2D(results[n.Inputs[0].ID], n.Pad)
		default: // an AvgPool2D included: the executor runs circuit.Fold's output
			panic(fmt.Sprintf("htc: unhandled op %v in %q", n.Kind, n.Name))
		}
		results[n.ID] = out
		if opts.OnNode != nil {
			opts.OnNode(n, out)
		}
	}
	return results[c.Output.ID]
}

// cleanOutputs decides, per node ID, whether the node's output must have zero
// invalid slots: the dirty-slot rule. It must when some reader looks at
// those slots before the next mask, and the circuit output always must. A
// reader does not look when it reads only valid positions:
//
//   - a window sum reads each window inside the grid;
//   - a global pool folds exactly the H by W grid (foldStrided);
//   - a convolution without padding reads, for every valid output, the taps
//     inside the grid; on the CHW path the channel fold adds block-aligned
//     partials and its own mask isolates block 0.
//
// An activation, flatten, BatchNorm, polynomial, add or concatenation maps
// a zero invalid slot to zero and a nonzero one to garbage, so it looks
// exactly when its own output must be clean. Everything else looks: a padded
// convolution or Pad2D reads the apron, a Dense replicates its whole input
// span, and a layout conversion (HW to CHW) adds channels on top of each
// other. Only the HW path of Conv2D and SumPool2D drop their masks on
// this; every other kernel masks as ever. The decision depends on nothing
// but the circuit and the policy, so the compiler's analysis, the recording
// run and every session make it alike.
func cleanOutputs(c *circuit.Circuit, policy LayoutPolicy) map[int]bool {
	// The layout each node's kernel reads its inputs in, and the one its
	// output is in: the same except for the metadata-only nodes, which keep
	// their input's.
	reads := make(map[int]Layout, len(c.Nodes))
	outs := make(map[int]Layout, len(c.Nodes))
	seenDense := false
	for _, n := range c.Nodes {
		switch n.Kind {
		case circuit.OpInput:
			outs[n.ID] = policy.inputLayout()
		case circuit.OpFlatten, circuit.OpPad2D:
			reads[n.ID] = outs[n.Inputs[0].ID]
			outs[n.ID] = reads[n.ID]
		default:
			reads[n.ID] = policy.opLayout(n.Kind, seenDense)
			outs[n.ID] = reads[n.ID]
			seenDense = seenDense || n.Kind == circuit.OpDense
		}
	}
	clean := map[int]bool{c.Output.ID: true}
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		r := c.Nodes[i]
		var looks bool
		switch r.Kind {
		case circuit.OpSumPool2D, circuit.OpGlobalAvgPool2D:
			looks = false
		case circuit.OpConv2D:
			looks = r.Pad > 0
		case circuit.OpActivation, circuit.OpFlatten, circuit.OpBatchNorm, circuit.OpPolyEval,
			circuit.OpAdd, circuit.OpConcat:
			looks = clean[r.ID]
		default:
			looks = true
		}
		for _, in := range r.Inputs {
			if looks || outs[in.ID] != reads[r.ID] {
				clean[in.ID] = true
			}
		}
	}
	return clean
}
