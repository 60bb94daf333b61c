package circuit

import (
	"fmt"

	"chet/internal/tensor"
)

// Evaluate runs the circuit on a plaintext input using the reference tensor
// kernels, returning the output tensor. This is CHET's unencrypted
// reference inference engine: the ground truth for validating homomorphic
// execution and for the profile-guided scale selection.
func (c *Circuit) Evaluate(input *tensor.Tensor) *tensor.Tensor {
	results := make(map[int]*tensor.Tensor, len(c.Nodes))
	for _, n := range c.Nodes {
		var out *tensor.Tensor
		switch n.Kind {
		case OpInput:
			if fmt.Sprint(input.Shape) != fmt.Sprint(n.OutShape) {
				panic(fmt.Sprintf("circuit: input shape %v does not match schema %v",
					input.Shape, n.OutShape))
			}
			out = input
		case OpConv2D:
			out = tensor.Conv2D(results[n.Inputs[0].ID], n.Weights, n.Stride, n.Pad)
			if n.Bias != nil {
				out = tensor.AddBiasPerChannel(out, n.Bias)
			}
		case OpDense:
			in := results[n.Inputs[0].ID]
			out = tensor.MatVec(n.Weights, in.Reshape(in.Size()), n.Bias)
		case OpAvgPool2D:
			out = tensor.AvgPool2D(results[n.Inputs[0].ID], n.Window, n.Stride)
		case OpSumPool2D:
			out = tensor.SumPool2D(results[n.Inputs[0].ID], n.Window, n.Stride)
		case OpGlobalAvgPool2D:
			out = tensor.GlobalAvgPool2D(results[n.Inputs[0].ID])
		case OpActivation:
			out = tensor.PolyActivation(results[n.Inputs[0].ID], n.ActA, n.ActB)
		case OpBatchNorm:
			out = tensor.BatchNorm(results[n.Inputs[0].ID], n.Weights, n.Bias)
		case OpAdd:
			out = tensor.Add(results[n.Inputs[0].ID], results[n.Inputs[1].ID])
		case OpConcat:
			ins := make([]*tensor.Tensor, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = results[in.ID]
			}
			out = tensor.ConcatChannels(ins...)
		case OpFlatten:
			in := results[n.Inputs[0].ID]
			out = in.Reshape(in.Size())
		case OpPad2D:
			out = tensor.Pad2D(results[n.Inputs[0].ID], n.Pad)
		case OpPolyEval:
			in := results[n.Inputs[0].ID]
			out = in.Clone()
			for i, v := range out.Data {
				acc := 0.0
				for j := len(n.Coeffs) - 1; j >= 0; j-- {
					acc = acc*v + n.Coeffs[j]
				}
				out.Data[i] = acc
			}
		default:
			panic(fmt.Sprintf("circuit: unhandled op %v", n.Kind))
		}
		results[n.ID] = out
	}
	return results[c.Output.ID]
}

// Flops returns the total floating-point operation count of one inference,
// the statistic reported in Table 3 of the paper.
func (c *Circuit) Flops() int64 {
	var total int64
	for _, n := range c.Nodes {
		switch n.Kind {
		case OpConv2D:
			in := n.Inputs[0].OutShape
			total += tensor.Conv2DFlops(in[0], in[1], in[2],
				n.Weights.Shape[0], n.Weights.Shape[2], n.Weights.Shape[3], n.Stride, n.Pad)
			if n.Bias != nil {
				total += int64(n.OutShape[0] * n.OutShape[1] * n.OutShape[2])
			}
		case OpDense:
			total += tensor.MatVecFlops(n.Weights.Shape[1], n.Weights.Shape[0])
			if n.Bias != nil {
				total += int64(n.OutShape[0])
			}
		case OpAvgPool2D, OpSumPool2D:
			in := n.Inputs[0].OutShape
			total += tensor.AvgPool2DFlops(in[0], in[1], in[2], n.Window, n.Stride)
		case OpGlobalAvgPool2D:
			in := n.Inputs[0].OutShape
			total += int64(in[0]) * int64(in[1]*in[2]+1)
		case OpActivation:
			size := 1
			for _, d := range n.OutShape {
				size *= d
			}
			total += tensor.PolyActivationFlops(size)
		case OpPolyEval:
			size := 1
			for _, d := range n.OutShape {
				size *= d
			}
			total += int64(size) * 2 * int64(len(n.Coeffs)-1)
		case OpBatchNorm:
			total += 2 * int64(n.OutShape[0]*n.OutShape[1]*n.OutShape[2])
		case OpAdd:
			size := 1
			for _, d := range n.OutShape {
				size *= d
			}
			total += int64(size)
		}
	}
	return total
}

// LayerCounts reports the per-kind operation counts of the circuit (the
// "No. of layers" columns of Table 3).
type LayerCounts struct {
	Conv, Dense, Act, Pool, BN, Add, Concat int
}

// CountLayers tallies the circuit's layers by kind.
func (c *Circuit) CountLayers() LayerCounts {
	var lc LayerCounts
	for _, n := range c.Nodes {
		switch n.Kind {
		case OpConv2D:
			lc.Conv++
		case OpDense:
			lc.Dense++
		case OpActivation:
			lc.Act++
		case OpAvgPool2D, OpSumPool2D, OpGlobalAvgPool2D:
			lc.Pool++
		case OpBatchNorm:
			lc.BN++
		case OpAdd:
			lc.Add++
		case OpConcat:
			lc.Concat++
		}
	}
	return lc
}

// MultiplicativeDepth returns a static upper bound on the ciphertext
// multiplicative depth of the circuit, counting one level per
// scalar/plaintext multiplication stage and two per polynomial activation
// (square + affine). This conservative bound is what a manual implementer
// provisions parameters for before any layout-aware optimization.
func (c *Circuit) MultiplicativeDepth() int {
	depth := make(map[int]int, len(c.Nodes))
	for _, n := range c.Nodes {
		d := 0
		for _, in := range n.Inputs {
			if depth[in.ID] > d {
				d = depth[in.ID]
			}
		}
		switch n.Kind {
		case OpConv2D, OpDense, OpAvgPool2D, OpGlobalAvgPool2D, OpBatchNorm:
			d++
		case OpActivation:
			d += 2
		case OpPolyEval:
			d += len(n.Coeffs) - 1 + 1
		}
		depth[n.ID] = d
	}
	return depth[c.Output.ID]
}
