package core

import (
	"fmt"
	"math"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
)

// ScaleSearch configures the profile-guided fixed-point scale selection
// (Section 5.5).
type ScaleSearch struct {
	// Tolerance is the maximum absolute output deviation from the
	// unencrypted reference permitted on every profiling input.
	Tolerance float64
	// StartBits is the initial exponent of all four factors (default 40,
	// as in the paper).
	StartBits int
	// MinBits floors the search (default 6).
	MinBits int
	// Step is the exponent decrement per accepted move (default 1).
	Step int
}

func (s *ScaleSearch) fillDefaults() {
	if s.StartBits == 0 {
		s.StartBits = 40
	}
	if s.MinBits == 0 {
		s.MinBits = 6
	}
	if s.Step == 0 {
		s.Step = 1
	}
	if s.Tolerance == 0 {
		s.Tolerance = 0.1
	}
}

// SelectScales runs CHET's profile-guided optimization: starting from 2^40
// for all four fixed-point factors (image Pc, plaintext weights Pw, scalar
// weights Pu, masks Pm), it decreases the exponents round-robin as long as
// the homomorphic output stays within tolerance of the unencrypted
// reference on every profiling input. Candidates are evaluated on the
// noise-modeling CKKS backend configured with the parameters the candidate
// scales themselves induce.
func SelectScales(c *circuit.Circuit, inputs []*tensor.Tensor, search ScaleSearch, opts Options) (htc.Scales, error) {
	search.fillDefaults()
	if len(inputs) == 0 {
		return htc.Scales{}, fmt.Errorf("core: scale selection needs at least one profiling input")
	}
	opts.fillDefaults()

	refs := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		refs[i] = c.Evaluate(in)
	}

	exps := [4]int{search.StartBits, search.StartBits, search.StartBits, search.StartBits}
	toScales := func(e [4]int) htc.Scales {
		return htc.Scales{
			Pc: math.Exp2(float64(e[0])),
			Pw: math.Exp2(float64(e[1])),
			Pu: math.Exp2(float64(e[2])),
			Pm: math.Exp2(float64(e[3])),
		}
	}

	if !scalesAcceptable(c, inputs, refs, toScales(exps), search.Tolerance, opts) {
		return htc.Scales{}, fmt.Errorf(
			"core: even the starting scales 2^%d do not meet tolerance %g; the circuit may be too deep",
			search.StartBits, search.Tolerance)
	}

	frozen := [4]bool{}
	for !(frozen[0] && frozen[1] && frozen[2] && frozen[3]) {
		for k := 0; k < 4; k++ {
			if frozen[k] {
				continue
			}
			cand := exps
			cand[k] -= search.Step
			if cand[k] < search.MinBits {
				frozen[k] = true
				continue
			}
			if scalesAcceptable(c, inputs, refs, toScales(cand), search.Tolerance, opts) {
				exps = cand
			} else {
				frozen[k] = true
			}
		}
	}
	return toScales(exps), nil
}

// scalesAcceptable compiles the circuit under the candidate scales and
// checks the encrypted output against the reference on every input.
func scalesAcceptable(c *circuit.Circuit, inputs, refs []*tensor.Tensor,
	sc htc.Scales, tol float64, opts Options) (ok bool) {
	defer func() {
		// Modulus exhaustion or capacity overflow means "not acceptable".
		if recover() != nil {
			ok = false
		}
	}()

	opts.Scales = sc
	comp, err := Compile(c, opts)
	if err != nil {
		return false
	}
	best := comp.Best
	b := hisa.NewSimBackend(hisa.SimParams{
		LogN:    best.LogN,
		LogQ:    int(best.LogQ),
		NoNoise: true, // deterministic values; noise enters via the 6-sigma bound
	})
	policy := best.Policy
	plan := htc.PlanFor(c, policy)
	for i, in := range inputs {
		enc := htc.EncryptTensor(b, plan, sc, in)
		out := htc.Execute(b, c, enc, policy, sc, htc.ExecOptions{})
		noiseBound := 0.0
		for _, ct := range out.CTs {
			if n := 6 * b.NoiseOf(ct); n > noiseBound {
				noiseBound = n
			}
		}
		dec := htc.DecryptTensor(b, out, 1)[0]
		for j := range refs[i].Data {
			if math.Abs(dec.Data[j]-refs[i].Data[j])+noiseBound > tol {
				return false
			}
		}
	}
	return true
}
