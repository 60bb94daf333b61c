// Package circuit defines CHET's input language: tensor circuits. A circuit
// is a DAG of tensor operations (convolution, dense layers, pooling,
// polynomial activations, batch normalization, residual adds, channel
// concatenation) over a single encrypted input tensor and plaintext model
// weights, with shapes known at compile time from the input schema — the
// property CHET exploits to unroll its dataflow analyses on the fly.
package circuit

import (
	"fmt"

	"chet/internal/tensor"
)

// OpKind enumerates tensor operations.
type OpKind int

// The tensor operations of the CHET DSL.
const (
	OpInput OpKind = iota
	OpConv2D
	OpDense
	OpAvgPool2D
	OpGlobalAvgPool2D
	OpActivation
	OpBatchNorm
	OpAdd
	OpConcat
	OpFlatten
	OpPad2D
	OpPolyEval
	OpSumPool2D
)

func (k OpKind) String() string {
	switch k {
	case OpInput:
		return "input"
	case OpConv2D:
		return "conv2d"
	case OpDense:
		return "dense"
	case OpAvgPool2D:
		return "avgpool2d"
	case OpGlobalAvgPool2D:
		return "globalavgpool2d"
	case OpActivation:
		return "activation"
	case OpBatchNorm:
		return "batchnorm"
	case OpAdd:
		return "add"
	case OpConcat:
		return "concat"
	case OpFlatten:
		return "flatten"
	case OpPad2D:
		return "pad2d"
	case OpPolyEval:
		return "polyeval"
	case OpSumPool2D:
		return "sumpool2d"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Node is one tensor operation in the circuit DAG.
type Node struct {
	ID     int
	Kind   OpKind
	Name   string
	Inputs []*Node

	// Attributes (populated per kind).
	Stride, Pad, Window int
	ActA, ActB          float64        // activation f(x) = ActA*x^2 + ActB*x
	Coeffs              []float64      // polynomial activation p(x) = sum Coeffs[i] x^i
	Weights             *tensor.Tensor // conv filters OIHW / dense matrix / BN gamma
	Bias                *tensor.Tensor // conv & dense bias / BN beta

	// OutShape is the inferred output shape.
	OutShape []int
}

// Circuit is a tensor circuit with a single encrypted input.
type Circuit struct {
	Name   string
	Input  *Node
	Output *Node
	Nodes  []*Node // topological order (Input first)
}

// Builder constructs circuits with shape inference at each step.
type Builder struct {
	name  string
	nodes []*Node
	input *Node
}

// NewBuilder starts a circuit with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

func (b *Builder) add(n *Node) *Node {
	n.ID = len(b.nodes)
	b.nodes = append(b.nodes, n)
	return n
}

// Input declares the encrypted input tensor with a CHW shape.
func (b *Builder) Input(c, h, w int) *Node {
	if b.input != nil {
		panic("circuit: multiple inputs declared")
	}
	n := b.add(&Node{Kind: OpInput, Name: "input", OutShape: []int{c, h, w}})
	b.input = n
	return n
}

func shapeCHW(n *Node) (int, int, int) {
	if len(n.OutShape) != 3 {
		panic(fmt.Sprintf("circuit: node %q output %v is not CHW", n.Name, n.OutShape))
	}
	return n.OutShape[0], n.OutShape[1], n.OutShape[2]
}

// Conv2D appends a convolution with OIHW filters, optional per-channel
// bias, stride, and symmetric zero padding.
func (b *Builder) Conv2D(x *Node, filters, bias *tensor.Tensor, stride, pad int, name string) *Node {
	cin, h, w := shapeCHW(x)
	if filters.Rank() != 4 || filters.Shape[1] != cin {
		panic(fmt.Sprintf("circuit: conv %q filter shape %v incompatible with input %v",
			name, filters.Shape, x.OutShape))
	}
	cout, kh, kw := filters.Shape[0], filters.Shape[2], filters.Shape[3]
	if bias != nil && bias.Size() != cout {
		panic(fmt.Sprintf("circuit: conv %q bias size %d != %d output channels", name, bias.Size(), cout))
	}
	hout := (h+2*pad-kh)/stride + 1
	wout := (w+2*pad-kw)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic(fmt.Sprintf("circuit: conv %q produces empty output", name))
	}
	return b.add(&Node{
		Kind: OpConv2D, Name: name, Inputs: []*Node{x},
		Stride: stride, Pad: pad, Weights: filters, Bias: bias,
		OutShape: []int{cout, hout, wout},
	})
}

// Dense appends a fully connected layer on a flattened input.
func (b *Builder) Dense(x *Node, weights, bias *tensor.Tensor, name string) *Node {
	inSize := 1
	for _, d := range x.OutShape {
		inSize *= d
	}
	if weights.Rank() != 2 || weights.Shape[1] != inSize {
		panic(fmt.Sprintf("circuit: dense %q weights %v incompatible with input size %d",
			name, weights.Shape, inSize))
	}
	out := weights.Shape[0]
	if bias != nil && bias.Size() != out {
		panic(fmt.Sprintf("circuit: dense %q bias size mismatch", name))
	}
	return b.add(&Node{
		Kind: OpDense, Name: name, Inputs: []*Node{x},
		Weights: weights, Bias: bias, OutShape: []int{out},
	})
}

// AvgPool2D appends average pooling (valid padding).
func (b *Builder) AvgPool2D(x *Node, window, stride int, name string) *Node {
	return b.pool(OpAvgPool2D, x, window, stride, name)
}

// SumPool2D appends window sums (valid padding): average pooling without its
// division by the window size, the form the compiler rewrites AvgPool2D into
// when it carries the division forward to a layer that absorbs it.
func (b *Builder) SumPool2D(x *Node, window, stride int, name string) *Node {
	return b.pool(OpSumPool2D, x, window, stride, name)
}

func (b *Builder) pool(kind OpKind, x *Node, window, stride int, name string) *Node {
	c, h, w := shapeCHW(x)
	hout := (h-window)/stride + 1
	wout := (w-window)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic(fmt.Sprintf("circuit: pool %q produces empty output", name))
	}
	return b.add(&Node{
		Kind: kind, Name: name, Inputs: []*Node{x},
		Window: window, Stride: stride, OutShape: []int{c, hout, wout},
	})
}

// GlobalAvgPool2D appends global average pooling over each channel.
func (b *Builder) GlobalAvgPool2D(x *Node, name string) *Node {
	c, _, _ := shapeCHW(x)
	return b.add(&Node{Kind: OpGlobalAvgPool2D, Name: name, Inputs: []*Node{x}, OutShape: []int{c}})
}

// Activation appends the HE-compatible activation f(x) = a*x^2 + b*x.
func (b *Builder) Activation(x *Node, a, bb float64, name string) *Node {
	return b.add(&Node{
		Kind: OpActivation, Name: name, Inputs: []*Node{x},
		ActA: a, ActB: bb, OutShape: append([]int(nil), x.OutShape...),
	})
}

// PolyEval appends a general polynomial activation p(x) = sum c_i x^i
// (coeffs[i] is the coefficient of x^i), the form produced by the polyfit
// package when approximating ReLU/sigmoid/tanh. Degree >= 1 required; each
// degree costs one multiplicative level under encryption.
func (b *Builder) PolyEval(x *Node, coeffs []float64, name string) *Node {
	if len(coeffs) < 2 {
		panic(fmt.Sprintf("circuit: polyeval %q needs degree >= 1", name))
	}
	return b.add(&Node{
		Kind: OpPolyEval, Name: name, Inputs: []*Node{x},
		Coeffs:   append([]float64(nil), coeffs...),
		OutShape: append([]int(nil), x.OutShape...),
	})
}

// BatchNorm appends inference-time batch normalization with folded
// per-channel scale gamma and shift beta.
func (b *Builder) BatchNorm(x *Node, gamma, beta *tensor.Tensor, name string) *Node {
	c, _, _ := shapeCHW(x)
	if gamma.Size() != c || beta.Size() != c {
		panic(fmt.Sprintf("circuit: batchnorm %q parameter size mismatch", name))
	}
	return b.add(&Node{
		Kind: OpBatchNorm, Name: name, Inputs: []*Node{x},
		Weights: gamma, Bias: beta, OutShape: append([]int(nil), x.OutShape...),
	})
}

// Add appends an elementwise (residual) addition of two equal-shaped nodes.
func (b *Builder) Add(x, y *Node, name string) *Node {
	if fmt.Sprint(x.OutShape) != fmt.Sprint(y.OutShape) {
		panic(fmt.Sprintf("circuit: add %q shape mismatch %v vs %v", name, x.OutShape, y.OutShape))
	}
	return b.add(&Node{
		Kind: OpAdd, Name: name, Inputs: []*Node{x, y},
		OutShape: append([]int(nil), x.OutShape...),
	})
}

// Concat appends channel concatenation of CHW nodes.
func (b *Builder) Concat(name string, xs ...*Node) *Node {
	if len(xs) < 2 {
		panic("circuit: concat needs at least two inputs")
	}
	_, h, w := shapeCHW(xs[0])
	totalC := 0
	for _, x := range xs {
		c, hh, ww := shapeCHW(x)
		if hh != h || ww != w {
			panic(fmt.Sprintf("circuit: concat %q spatial mismatch", name))
		}
		totalC += c
	}
	return b.add(&Node{
		Kind: OpConcat, Name: name, Inputs: append([]*Node(nil), xs...),
		OutShape: []int{totalC, h, w},
	})
}

// Flatten reshapes to a vector. In CHET this is a metadata-only operation.
func (b *Builder) Flatten(x *Node, name string) *Node {
	size := 1
	for _, d := range x.OutShape {
		size *= d
	}
	return b.add(&Node{Kind: OpFlatten, Name: name, Inputs: []*Node{x}, OutShape: []int{size}})
}

// Pad2D appends symmetric spatial zero padding.
func (b *Builder) Pad2D(x *Node, pad int, name string) *Node {
	c, h, w := shapeCHW(x)
	return b.add(&Node{
		Kind: OpPad2D, Name: name, Inputs: []*Node{x}, Pad: pad,
		OutShape: []int{c, h + 2*pad, w + 2*pad},
	})
}

// Build finalizes the circuit with the given output node.
func (b *Builder) Build(output *Node) *Circuit {
	if b.input == nil {
		panic("circuit: no input declared")
	}
	if output == nil {
		panic("circuit: nil output")
	}
	return &Circuit{Name: b.name, Input: b.input, Output: output, Nodes: b.nodes}
}
