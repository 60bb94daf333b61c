package core

import (
	"fmt"
	"math"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
)

// BuildBackend instantiates the runtime backend that realizes a compiled
// circuit: the HEAAN-style CKKS backend or the real RNS-CKKS scheme, with
// exactly the encryption parameters and rotation keys the compiler chose.
// prng may be nil for a cryptographically secure source (RNS only).
func BuildBackend(comp *Compiled, prng ring.PRNG) (hisa.Backend, error) {
	best := comp.Best
	switch comp.Options.Scheme {
	case SchemeCKKS:
		var rotSet map[int]bool
		if comp.Options.PowerOfTwoRotationsOnly {
			rotSet = powerOfTwoSet(1 << uint(best.LogN-1))
		} else {
			rotSet = make(map[int]bool, len(best.Rotations))
			for _, r := range best.Rotations {
				rotSet[r] = true
			}
		}
		return hisa.NewSimBackend(hisa.SimParams{
			LogN:      best.LogN,
			LogQ:      int(best.LogQ),
			Rotations: rotSet,
		}), nil
	case SchemeRNS:
		params, err := RNSParameters(comp)
		if err != nil {
			return nil, fmt.Errorf("core: building RNS parameters: %w", err)
		}
		cfg := comp.KeyConfig(params)
		cfg.PRNG = prng
		return hisa.NewRNSBackend(cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", comp.Options.Scheme)
	}
}

// KeyConfig is the RNS backend configuration realizing the compilation's
// keys under params (from RNSParameters): the key plan and, when the
// compilation places bootstraps, the bootstrapper and its keys, provisioned
// against the exact spec the chain was laid out for. Clients generate keys
// from it, servers admit uploads against it and size frames from it.
func (c *Compiled) KeyConfig(params *ckks.Parameters) hisa.RNSConfig {
	cfg := hisa.RNSConfig{Params: params, Keys: c.Keys}
	if c.BootPlan != nil {
		spec := c.BootPlan.Spec
		cfg.Bootstrap = &spec
	}
	return cfg
}

// EvalKeyBytes is the size of the evaluation keys a client of this
// compilation generates and uploads — the public key and every switching key,
// each cut at its planned level — or 0 for a scheme without transferable
// keys.
func (c *Compiled) EvalKeyBytes() int64 {
	params, err := RNSParameters(c)
	if err != nil {
		return 0
	}
	pk, rlk, rtks := c.KeyConfig(params).EvaluationKeySizes()
	return int64(pk + rlk + rtks)
}

// RNSParameters materializes the RNS-CKKS parameter set a compilation
// selected. Both endpoints of the serving protocol derive parameters this
// way — compilation is deterministic, so client and server agree without
// shipping anything but the model — and it is the single place the
// Compiled → ckks.Parameters mapping lives.
func RNSParameters(comp *Compiled) (*ckks.Parameters, error) {
	if comp.Options.Scheme != SchemeRNS {
		return nil, fmt.Errorf("core: scheme %v has no RNS parameters", comp.Options.Scheme)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     comp.Best.LogN,
		LogQ:     comp.Best.RNSChainBits,
		LogP:     comp.Best.SpecialBits,
		Alpha:    comp.Best.SpecialPrimes,
		LogScale: int(math.Round(math.Log2(comp.Options.Scales.Pc))),
	})
	if err != nil {
		return nil, err
	}
	// The security table bounds the largest modulus any key is published
	// under — chain and every special prime — not the ciphertext modulus.
	if sec := comp.Options.SecurityBits; sec > 0 && params.LogQP() > float64(MaxLogQ(comp.Best.LogN, sec)) {
		return nil, fmt.Errorf("core: logQP %.1f (chain + %d special primes) exceeds the %d-bit budget %d at N=2^%d",
			params.LogQP(), params.Alpha(), sec, MaxLogQ(comp.Best.LogN, sec), comp.Best.LogN)
	}
	return params, nil
}

func powerOfTwoSet(slots int) map[int]bool {
	set := map[int]bool{}
	for p := 1; p < slots; p <<= 1 {
		set[p] = true
	}
	return set
}
