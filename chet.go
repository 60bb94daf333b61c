// Package chet is a from-scratch reproduction of CHET, the optimizing
// compiler for fully-homomorphic neural-network inferencing (Dathathri et
// al., PLDI 2019). It compiles tensor circuits — convolutional neural
// networks over an encrypted input image — into optimized homomorphic
// programs: it selects encryption parameters guaranteeing security and
// correctness, chooses ciphertext data layouts with a calibrated cost
// model, provisions exactly the rotation keys the circuit needs, and tunes
// fixed-point scaling factors with a profile-guided search.
//
// Two FHE targets are supported through a scheme-agnostic instruction set
// (the HISA): a real, from-scratch RNS-CKKS lattice scheme (the scheme of
// SEAL v3.1) and a high-fidelity mock of HEAAN v1.0's CKKS (see DESIGN.md).
//
// Quick start:
//
//	model, _ := chet.Model("LeNet-5-small")
//	compiled, _ := chet.Compile(model.Circuit, chet.Options{Scheme: chet.SchemeCKKS})
//	session, _ := chet.NewSession(compiled, nil)
//	img := chet.SyntheticImage(model.InputShape, 7)
//	enc := session.Encrypt(img)          // client side
//	out := session.Infer(enc)            // server side (no secret key)
//	pred := session.Decrypt(out)         // client side
package chet

import (
	"fmt"

	"chet/internal/circuit"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// Re-exported building blocks. The type aliases make the full DSL, the
// compiler, and the runtime available from the root package so downstream
// users never need the internal paths.
type (
	// Circuit is a tensor circuit (a DAG of tensor operations).
	Circuit = circuit.Circuit
	// Builder constructs circuits with shape inference.
	Builder = circuit.Builder
	// Tensor is a dense plaintext tensor.
	Tensor = tensor.Tensor
	// Options configures compilation.
	Options = core.Options
	// Compiled is the result of compilation.
	Compiled = core.Compiled
	// PolicyResult records the compiler's decisions for one layout policy.
	PolicyResult = core.PolicyResult
	// Scales are the four fixed-point scaling factors (image, plaintext
	// weights, scalar weights, masks).
	Scales = htc.Scales
	// Scheme selects the FHE target.
	Scheme = core.Scheme
	// LayoutPolicy is a data-layout strategy (HW / CHW / mixed).
	LayoutPolicy = htc.LayoutPolicy
	// CipherTensor is an encrypted tensor with layout metadata.
	CipherTensor = htc.CipherTensor
	// Backend is the HISA: the scheme-agnostic instruction set.
	Backend = hisa.Backend
	// NetModel is a named network from the evaluation zoo.
	NetModel = nn.Model
	// ScaleSearch configures profile-guided scale selection.
	ScaleSearch = core.ScaleSearch
	// BootstrapOptions enables compiler bootstrap placement for circuits
	// deeper than any affordable modulus chain.
	BootstrapOptions = core.BootstrapOptions
	// BootReport is the placement pass's plan: the bootstrap spec plus every
	// refresh site the compiler predicts.
	BootReport = core.BootReport
	// BootPlacement is one compiler-predicted refresh site.
	BootPlacement = core.BootPlacement
)

// The two supported schemes.
const (
	// SchemeCKKS targets HEAAN v1.0's CKKS (power-of-two modulus).
	SchemeCKKS = core.SchemeCKKS
	// SchemeRNS targets SEAL v3.1's RNS-CKKS (prime modulus chain).
	SchemeRNS = core.SchemeRNS
)

// NewCircuit starts building a tensor circuit.
func NewCircuit(name string) *Builder { return circuit.NewBuilder(name) }

// NewTensor allocates a zero tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromData wraps data with a shape.
func TensorFromData(data []float64, shape ...int) *Tensor {
	return tensor.FromData(data, shape...)
}

// Compile runs the CHET compilation pipeline on a circuit.
func Compile(c *Circuit, opts Options) (*Compiled, error) { return core.Compile(c, opts) }

// SelectScales runs the profile-guided fixed-point scale search.
func SelectScales(c *Circuit, inputs []*Tensor, search ScaleSearch, opts Options) (Scales, error) {
	return core.SelectScales(c, inputs, search, opts)
}

// Model returns a network from the paper's evaluation zoo by name
// ("LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial",
// "SqueezeNet-CIFAR", or the demo "LeNet-tiny").
func Model(name string) (*NetModel, error) { return nn.ByName(name) }

// Models returns the five evaluation networks in Table 3 order.
func Models() []*NetModel { return nn.All() }

// SyntheticImage produces a deterministic input image (a stand-in for
// MNIST/CIFAR samples).
func SyntheticImage(shape []int, seed uint64) *Tensor { return nn.SyntheticImage(shape, seed) }

// Session realizes a compiled circuit on a concrete backend: the client
// uses Encrypt and Decrypt (key material stays inside the backend), the
// server uses Infer.
type Session struct {
	Compiled *Compiled
	Backend  Backend

	// Workers sets how many goroutines Infer runs ready instructions on, and
	// how many one RNS instruction fans its limbs across: 0 or 1 executes
	// serially, runtime.GOMAXPROCS(0) uses every CPU. Parallel inference is
	// bit-identical to serial on every backend.
	Workers int
}

// NewSession instantiates the backend the compiler chose (CKKS mock or real
// RNS-CKKS with exactly the selected rotation keys). prng may be nil for a
// cryptographically secure source.
func NewSession(comp *Compiled, prng ring.PRNG) (*Session, error) {
	b, err := core.BuildBackend(comp, prng)
	if err != nil {
		return nil, err
	}
	return &Session{Compiled: comp, Backend: b}, nil
}

// Encrypt encodes and encrypts an input image under the compiled layout.
func (s *Session) Encrypt(img *Tensor) *CipherTensor { return s.Compiled.Encrypt(s.Backend, img) }

// EncryptBatch encrypts up to Options.Batch images into the slot lanes of
// one cipher tensor. A single Infer then serves the whole batch.
func (s *Session) EncryptBatch(imgs []*Tensor) *CipherTensor {
	return s.Compiled.Encrypt(s.Backend, imgs...)
}

// DecryptBatch recovers the first n lane predictions of a batched result,
// each in the circuit's output shape as Decrypt returns it.
func (s *Session) DecryptBatch(out *CipherTensor, n int) []*Tensor {
	return s.Compiled.Decrypt(s.Backend, out, n)
}

// RunBatch is the end-to-end batched path: encrypt all images into lanes,
// infer once, decrypt each lane. Requires Options.Batch >= len(imgs).
func (s *Session) RunBatch(imgs []*Tensor) []*Tensor {
	return s.DecryptBatch(s.Infer(s.EncryptBatch(imgs)), len(imgs))
}

// SelectBatchCapacity finds the largest power-of-two batch (up to maxBatch)
// the circuit supports without growing the ring beyond its unbatched
// parameters.
func SelectBatchCapacity(c *Circuit, opts Options, maxBatch int) (int, error) {
	return core.SelectBatchCapacity(c, opts, maxBatch)
}

// Infer replays the compiled program on an encrypted input, producing an
// encrypted prediction; the program's bootstraps, when it has any, are its
// own instructions. Infer is safe for concurrent use.
func (s *Session) Infer(enc *CipherTensor) *CipherTensor {
	return s.Compiled.Execute(s.Backend, enc, s.Workers)
}

// Decrypt recovers the prediction tensor in the circuit's output shape.
func (s *Session) Decrypt(out *CipherTensor) *Tensor { return s.Compiled.Decrypt(s.Backend, out, 1)[0] }

// Run is the end-to-end convenience path: encrypt, infer, decrypt.
func (s *Session) Run(img *Tensor) *Tensor {
	return s.Decrypt(s.Infer(s.Encrypt(img)))
}

// Describe renders the compiler's decisions in a human-readable form.
func Describe(comp *Compiled) string {
	b := comp.Best
	s := fmt.Sprintf("circuit %q targeting %v\n", comp.Circuit.Name, comp.Options.Scheme)
	s += fmt.Sprintf("  best layout policy: %v\n", b.Policy)
	s += fmt.Sprintf("  N = 2^%d, log2(Q) = %.0f", b.LogN, b.LogQ)
	if comp.Options.Scheme == SchemeRNS {
		s += fmt.Sprintf(", chain %v, special %d×%d (%d digits), eval keys %.0f MiB",
			b.RNSChainBits, b.SpecialPrimes, b.SpecialBits, b.KeySwitchDigits(), float64(comp.EvalKeyBytes())/(1<<20))
	}
	s += fmt.Sprintf("\n  rotation keys: %d (executing %d rotations)\n",
		len(b.Rotations), b.RotationOps)
	if b.Batch > 1 {
		s += fmt.Sprintf("  batch capacity: %d images/ciphertext (%.1f ms each amortized)\n",
			b.Batch, b.CostPerImage/1000)
	}
	if p := comp.BootPlan; p != nil {
		s += fmt.Sprintf("  bootstrapping: %d placements, window %d, floor %d (pipeline depth %d, est %.1f ms)\n",
			len(p.Placements), p.Window, p.Floor, p.Depth, p.EstCost/1000)
	}
	s += fmt.Sprintf("  estimated cost: %.1f ms\n", b.EstimatedCost/1000)
	for _, r := range comp.Trace {
		marker := " "
		if r.Policy == b.Policy {
			marker = "*"
		}
		s += fmt.Sprintf("  %s %-20v est %10.1f ms  (N=2^%d)\n",
			marker, r.Policy, r.EstimatedCost/1000, r.LogN)
	}
	return s
}
