package circuit

import (
	"fmt"
	"math"

	"chet/internal/tensor"
)

// Program is a tensor circuit as the runtime executes it: the circuit after
// Fold, the factor its output differs from the circuit's by, and what each
// node did with the factors Fold carried through it.
type Program struct {
	// Circuit is the rewritten  The compiler analyzes it, every
	// session executes it, and Circuit.Evaluate on it, times OutFactor, is
	// Circuit.Evaluate on the source
	Circuit *Circuit
	// OutFactor is the factor no layer absorbed: the true output is
	// OutFactor times the program's. Compiled.Decrypt applies it on the
	// client, where it costs nothing.
	OutFactor float64
	// Factors holds, per program node ID, the factor on the node's input
	// and the factor on its output: the node's true value is Out times the
	// value it computes. A node with Out = 1 absorbed In, one with Out = In
	// passed it on, and an activation or a window sum set a new one.
	Factors []Factor
}

// Factor is the constant factor on a program node's input (In) and output
// (Out); both are 1 where Fold moved nothing through the node.
type Factor struct{ In, Out float64 }

// maxFactorBits bounds the factor a monic activation may leave on its output
// (|log2|): a computed value is the true one divided by its factor, and the
// compiler provisions only a margin of bits above the true magnitudes.
const maxFactorBits = 8

// Fold rewrites a tensor circuit so that constant factors cost no level of
// the modulus chain (CHET §4.2's advice to avoid or delay the expensive
// operations; nGraph-HE2 folds the same constants). The compiler runs it
// before analysis (core.Compile); the runtime executes only its result:
//
//   - an activation a·x² + b·x becomes the monic x·(x + b/a), one ciphertext
//     product, and its output carries the factor a (a·f² for an input factor
//     f; beyond 2^±maxFactorBits it becomes a degree-2 polynomial that
//     absorbs f instead); a linear one (a = 0) is dropped and its output
//     carries b;
//   - an average pool becomes a window sum, its output carrying 1/window²;
//   - a BatchNorm whose producer is a Conv2D that nothing else reads folds
//     into that convolution's weights and bias.
//
// A factor rides forward through the linear nodes (window sums, global
// pools, flattens, pads, and adds and concatenations whose operands agree on
// it) until a Conv2D, Dense or BatchNorm scales its weights by it, an
// activation or polynomial scales its coefficients by it, or it reaches the
// output and becomes OutFactor. Operands of an add or a concatenation that
// arrive with different factors are brought to the largest one by a
// degree-1 polynomial, the one place the rewrite spends a level; no circuit
// of the zoo has one.
//
// Where it is cheaper, a factor is paid for before it arises. A Conv2D or
// Dense whose only reader is an activation, followed by nothing but window
// sums before some other layer reads the result, scales its weights and
// bias by s = √|a| / Π window: the activation squares 1/s back into a
// factor ±Π window², and the window sums cancel it. Their readers then see
// true values. A factor that reaches a weight plaintext costs precision —
// the plaintext's rounding error meets the inflated input — while scalar
// taps and the client's decryption absorb one exactly, so when the chain
// ends at the output the factor is carried to it instead.
//
// Factors are folded into constants, never into a ciphertext's scale: every
// scale stays the product of the compiled factors, prime-aligned under
// bootstrapping.
func Fold(c *Circuit) *Program {
	readers := map[int][]*Node{}
	for _, n := range c.Nodes {
		for _, in := range n.Inputs {
			readers[in.ID] = append(readers[in.ID], n)
		}
	}
	// sole is n's only reader, or nil when n has several or is the output.
	sole := func(n *Node) *Node {
		if r := readers[n.ID]; len(r) == 1 && n != c.Output {
			return r[0]
		}
		return nil
	}
	// prescale is the s a Conv2D or Dense scales its output by (see above).
	prescale := func(n *Node) float64 {
		act := sole(n)
		if act == nil || act.Kind != OpActivation || act.ActA == 0 {
			return 1
		}
		s, r := math.Sqrt(math.Abs(act.ActA)), sole(act)
		for ; r != nil && r.Kind == OpAvgPool2D; r = sole(r) {
			s /= float64(r.Window)
		}
		if r == nil {
			return 1 // the chain ends at the output, which absorbs for free
		}
		return s
	}
	type value struct {
		n *Node
		f float64
	}
	vals := make(map[int]value, len(c.Nodes))
	var factors []Factor // by program node ID: every node is emitted as it is built
	b := NewBuilder(c.Name)
	emit := func(n *Node, in, out float64) value {
		if sameFactor(math.Abs(out), 1) {
			out = math.Copysign(1, out) // a factor paid for in advance cancels to ±1, up to rounding
		}
		factors = append(factors, Factor{In: in, Out: out})
		return value{n, out}
	}

	for _, n := range c.Nodes {
		var x value
		if len(n.Inputs) > 0 {
			x = vals[n.Inputs[0].ID]
		}
		var out value
		switch n.Kind {
		case OpInput:
			s := n.OutShape
			out = emit(b.Input(s[0], s[1], s[2]), 1, 1)
		case OpConv2D:
			s := prescale(n)
			out = emit(b.Conv2D(x.n, scaled(n.Weights, x.f*s), scaled(n.Bias, s), n.Stride, n.Pad, n.Name), x.f, 1/s)
		case OpDense:
			s := prescale(n)
			out = emit(b.Dense(x.n, scaled(n.Weights, x.f*s), scaled(n.Bias, s), n.Name), x.f, 1/s)
		case OpBatchNorm:
			// Only the BatchNorm may see the convolution's own output.
			if x.n.Kind == OpConv2D && x.f == 1 && sole(n.Inputs[0]) == n &&
				(n.Inputs[0].Kind == OpConv2D || n.Inputs[0].Kind == OpBatchNorm) {
				foldBatchNorm(x.n, n)
				out = x
				break
			}
			out = emit(b.BatchNorm(x.n, scaled(n.Weights, x.f), n.Bias, n.Name), x.f, 1)
		case OpActivation:
			if n.ActA == 0 || x.f == 0 {
				out = value{x.n, n.ActB * x.f} // linear: nothing to compute
				break
			}
			if f := n.ActA * x.f * x.f; math.Abs(math.Log2(math.Abs(f))) <= maxFactorBits {
				out = emit(b.Activation(x.n, 1, n.ActB/(n.ActA*x.f), n.Name), x.f, f)
				break
			}
			// The factor squares at every activation: past the bound, spend
			// the level of a degree-2 polynomial and absorb it instead.
			out = emit(b.PolyEval(x.n, []float64{0, n.ActB * x.f, n.ActA * x.f * x.f}, n.Name), x.f, 1)
		case OpPolyEval:
			coeffs := make([]float64, len(n.Coeffs))
			for i, v := range n.Coeffs {
				coeffs[i] = v * math.Pow(x.f, float64(i))
			}
			out = emit(b.PolyEval(x.n, coeffs, n.Name), x.f, 1)
		case OpAvgPool2D:
			out = emit(b.SumPool2D(x.n, n.Window, n.Stride, n.Name), x.f, x.f/float64(n.Window*n.Window))
		case OpSumPool2D:
			out = emit(b.SumPool2D(x.n, n.Window, n.Stride, n.Name), x.f, x.f)
		case OpGlobalAvgPool2D:
			out = emit(b.GlobalAvgPool2D(x.n, n.Name), x.f, x.f)
		case OpFlatten:
			out = emit(b.Flatten(x.n, n.Name), x.f, x.f)
		case OpPad2D:
			out = emit(b.Pad2D(x.n, n.Pad, n.Name), x.f, x.f)
		case OpAdd, OpConcat:
			// The operands meet at the largest factor, so every alignment
			// multiplies by at most 1 in magnitude.
			f := 0.0
			for _, in := range n.Inputs {
				if g := vals[in.ID].f; math.Abs(g) > math.Abs(f) {
					f = g
				}
			}
			ins := make([]*Node, len(n.Inputs))
			for i, in := range n.Inputs {
				v := vals[in.ID]
				ins[i] = v.n
				if !sameFactor(v.f, f) {
					ins[i] = emit(b.PolyEval(v.n, []float64{0, v.f / f}, fmt.Sprintf("%s/align%d", n.Name, i)), v.f, f).n
				}
			}
			if n.Kind == OpAdd {
				out = emit(b.Add(ins[0], ins[1], n.Name), f, f)
			} else {
				out = emit(b.Concat(n.Name, ins...), f, f)
			}
		default:
			panic(fmt.Sprintf("circuit: fold: unhandled op %v", n.Kind))
		}
		vals[n.ID] = out
	}

	res := vals[c.Output.ID]
	return &Program{Circuit: b.Build(res.n), OutFactor: res.f, Factors: factors}
}

// scaled returns a copy of t with every entry multiplied by f (t itself when
// f is 1 or t is nil; no rewrite mutates it).
func scaled(t *tensor.Tensor, f float64) *tensor.Tensor {
	if f == 1 || t == nil {
		return t
	}
	s := t.Clone()
	for i := range s.Data {
		s.Data[i] *= f
	}
	return s
}

// foldBatchNorm folds bn's per-channel γ and β into conv, the program node
// that produces bn's input and that nothing else reads:
// γ·(W*x + bias) + β = (γW)*x + (γ·bias + β).
func foldBatchNorm(conv, bn *Node) {
	gamma, beta := bn.Weights.Data, bn.Bias.Data
	w := conv.Weights.Clone()
	per := len(w.Data) / len(gamma)
	for i := range w.Data {
		w.Data[i] *= gamma[i/per]
	}
	bias := tensor.New(len(gamma))
	for o := range gamma {
		v := 0.0
		if conv.Bias != nil {
			v = conv.Bias.Data[o]
		}
		bias.Data[o] = gamma[o]*v + beta[o]
	}
	conv.Weights, conv.Bias = w, bias
	conv.Name += "+" + bn.Name
}

// sameFactor reports whether two factors agree to rounding: the same factor
// reached along two paths may differ in its last bits.
func sameFactor(f, g float64) bool {
	return math.Abs(f-g) <= 1e-12*math.Max(math.Abs(f), math.Abs(g))
}
