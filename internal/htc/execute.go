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
		case circuit.OpAvgPool2D:
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
func convert(b hisa.Backend, t *CipherTensor, want Layout, sc Scales, opts ExecOptions) *CipherTensor {
	if t.Layout == want {
		return t
	}
	if want == LayoutCHW {
		return ToCHWOpts(b, t, opts)
	}
	return ToHWOpts(b, t, sc, opts)
}

// Execute runs the circuit homomorphically on backend b, serially. The
// input must have been encrypted with PlanFor(c, policy). All layout
// conversions demanded by the policy are inserted automatically.
func Execute(b hisa.Backend, c *circuit.Circuit, input *CipherTensor, policy LayoutPolicy, sc Scales) *CipherTensor {
	return ExecuteOpts(b, c, input, policy, sc, ExecOptions{})
}

// ExecuteOpts runs the circuit homomorphically with the given execution
// options. With opts.Workers > 1 the kernels fan their independent
// per-output work across a worker pool; the backend must satisfy the
// concurrency contract of hisa.Backend (all executable backends do — the
// compiler's analysis backends do not, and must use Execute). The result is
// bit-identical to a serial run on every executable backend.
// scoper is the structural capability a tracing backend
// (telemetry.Tracer) exposes for attributing ops to the circuit node that
// issued them. It is probed structurally, through any wrapper chain, so htc
// carries no dependency on the telemetry package.
type scoper interface {
	StartScope(label string) func()
}

func ExecuteOpts(b hisa.Backend, c *circuit.Circuit, input *CipherTensor, policy LayoutPolicy, sc Scales, opts ExecOptions) *CipherTensor {
	results := make(map[int]*CipherTensor, len(c.Nodes))
	seenDense := false
	var startScope func(string) func()
	if tb, ok := hisa.FindCapability[scoper](b); ok {
		startScope = tb.StartScope
	}
	// nodeOpts is the per-node options copy handed to kernels: it carries
	// the executing node's ID so scale policies can key decisions by site.
	nodeOpts := opts
	arg := func(n *circuit.Node, i int) *CipherTensor {
		t, ok := results[n.Inputs[i].ID]
		if !ok {
			panic(fmt.Sprintf("htc: node %q input not yet computed (circuit not topological?)", n.Name))
		}
		return convert(b, t, policy.opLayout(n.Kind, seenDense), sc, nodeOpts)
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
				ins[i] = regrid(b, ins[i], ins[last], sc, nodeOpts)
			}
		}
		return ins
	}

	for _, n := range c.Nodes {
		nodeOpts = opts
		nodeOpts.node = n.ID
		var out *CipherTensor
		// The node scope opens before arg() runs so the layout conversions
		// a node demands are billed to it, not to the gap between nodes.
		var endScope func()
		if startScope != nil && n.Kind != circuit.OpInput {
			endScope = startScope(fmt.Sprintf("%v:%s", n.Kind, n.Name))
		}
		switch n.Kind {
		case circuit.OpInput:
			if input.Layout != policy.inputLayout() {
				panic(fmt.Sprintf("htc: input encrypted in %v but policy %v wants %v",
					input.Layout, policy, policy.inputLayout()))
			}
			out = input
		case circuit.OpConv2D:
			out = Conv2DOpts(b, arg(n, 0), n.Weights, n.Bias, n.Stride, n.Pad, sc, nodeOpts)
		case circuit.OpDense:
			out = DenseOpts(b, arg(n, 0), n.Weights, n.Bias, sc, nodeOpts)
			seenDense = true
		case circuit.OpAvgPool2D:
			out = AvgPool2DOpts(b, arg(n, 0), n.Window, n.Stride, sc, nodeOpts)
		case circuit.OpGlobalAvgPool2D:
			out = GlobalAvgPool2DOpts(b, arg(n, 0), sc, nodeOpts)
		case circuit.OpActivation:
			out = ActivationOpts(b, arg(n, 0), n.ActA, n.ActB, sc, nodeOpts)
		case circuit.OpPolyEval:
			out = PolyEvalOpts(b, arg(n, 0), n.Coeffs, sc, nodeOpts)
		case circuit.OpBatchNorm:
			out = BatchNormOpts(b, arg(n, 0), n.Weights, n.Bias, sc, nodeOpts)
		case circuit.OpAdd:
			ins := args(n)
			out = AddOpts(b, ins[0], ins[1], nodeOpts)
		case circuit.OpConcat:
			out = ConcatOpts(b, sc, nodeOpts, args(n)...)
		case circuit.OpFlatten:
			out = results[n.Inputs[0].ID] // metadata-only
		case circuit.OpPad2D:
			out = Pad2D(results[n.Inputs[0].ID], n.Pad)
		default:
			panic(fmt.Sprintf("htc: unhandled op %v", n.Kind))
		}
		if endScope != nil {
			endScope()
		}
		results[n.ID] = out
		if opts.OnNode != nil {
			opts.OnNode(n, out)
		}
	}
	return results[c.Output.ID]
}
