package core

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"chet/internal/circuit"
	"chet/internal/nn"
)

// zooCompiles caches default-option compilations of the evaluation zoo, so
// the tests that sweep every network share one (slow) compile per
// (network, scheme, security level).
var zooCompiles struct {
	sync.Mutex
	m map[zooKey]zooResult
}

type zooKey struct {
	model    string
	scheme   Scheme
	security int
}

type zooResult struct {
	comp *Compiled
	err  error
}

func compileZoo(c *circuit.Circuit, scheme Scheme, security int) (*Compiled, error) {
	zooCompiles.Lock()
	defer zooCompiles.Unlock()
	key := zooKey{c.Name, scheme, security}
	if r, ok := zooCompiles.m[key]; ok {
		return r.comp, r.err
	}
	comp, err := Compile(c, Options{Scheme: scheme, SecurityBits: security})
	if zooCompiles.m == nil {
		zooCompiles.m = map[zooKey]zooResult{}
	}
	zooCompiles.m[key] = zooResult{comp, err}
	return comp, err
}

// oneSpecialParams is the ring degree and chain every layout policy of every
// zoo network compiles to with one special prime: the parameters the
// compiler fixes before it weighs α (pinned when digits first grouped
// primes, re-pinned when the circuit rewrite and the dirty-slot rule cut
// the chains). Choosing more special primes spends slack the security table
// leaves at that ring degree; it may never buy itself a larger N or a longer
// chain.
var oneSpecialParams = []struct {
	model        string
	security     int
	policy       string
	logN, primes int
	logQ         float64
}{
	{"LeNet-5-small", 128, "HW", 15, 14, 572},
	{"LeNet-5-small", 128, "CHW", 15, 14, 572},
	{"LeNet-5-small", 128, "HW-conv/CHW-rest", 15, 16, 652},
	{"LeNet-5-small", 128, "CHW-fc/HW-before", 15, 14, 572},
	{"LeNet-5-small", 192, "HW", 16, 14, 572},
	{"LeNet-5-small", 192, "CHW", 16, 14, 572},
	{"LeNet-5-small", 192, "HW-conv/CHW-rest", 16, 16, 652},
	{"LeNet-5-small", 192, "CHW-fc/HW-before", 16, 14, 572},
	{"LeNet-5-medium", 128, "HW", 15, 14, 572},
	{"LeNet-5-medium", 128, "CHW", 15, 14, 572},
	{"LeNet-5-medium", 128, "HW-conv/CHW-rest", 15, 16, 652},
	{"LeNet-5-medium", 128, "CHW-fc/HW-before", 15, 14, 572},
	{"LeNet-5-medium", 192, "HW", 16, 14, 572},
	{"LeNet-5-medium", 192, "CHW", 16, 14, 572},
	{"LeNet-5-medium", 192, "HW-conv/CHW-rest", 16, 16, 652},
	{"LeNet-5-medium", 192, "CHW-fc/HW-before", 16, 14, 572},
	{"LeNet-5-large", 128, "HW", 15, 14, 572},
	{"LeNet-5-large", 128, "CHW", 15, 16, 652},
	{"LeNet-5-large", 128, "HW-conv/CHW-rest", 15, 16, 652},
	{"LeNet-5-large", 128, "CHW-fc/HW-before", 15, 14, 572},
	{"LeNet-5-large", 192, "HW", 16, 14, 572},
	{"LeNet-5-large", 192, "CHW", 16, 16, 652},
	{"LeNet-5-large", 192, "HW-conv/CHW-rest", 16, 16, 652},
	{"LeNet-5-large", 192, "CHW-fc/HW-before", 16, 14, 572},
	{"Industrial", 128, "HW", 16, 22, 862},
	{"Industrial", 128, "CHW", 16, 22, 862},
	{"Industrial", 128, "HW-conv/CHW-rest", 16, 26, 1042},
	{"Industrial", 128, "CHW-fc/HW-before", 16, 22, 862},
	{"Industrial", 192, "HW", 16, 22, 862},
	{"Industrial", 192, "CHW", 16, 22, 862},
	{"Industrial", 192, "HW-conv/CHW-rest", 16, 26, 1042},
	{"Industrial", 192, "CHW-fc/HW-before", 16, 22, 862},
	{"SqueezeNet-CIFAR", 128, "HW", 16, 30, 1192},
	{"SqueezeNet-CIFAR", 128, "CHW", 16, 31, 1257},
	{"SqueezeNet-CIFAR", 128, "HW-conv/CHW-rest", 16, 43, 1702},
	{"SqueezeNet-CIFAR", 128, "CHW-fc/HW-before", 16, 30, 1192},
	// SqueezeNet-CIFAR at 192 bits: no ring degree up to 2^16 is secure.
}

// TestSpecialPrimesSpendOnlySlack is the security accounting of the
// special-prime choice, over every zoo network at 128 and 192 bits and every
// layout policy: the ring degree and the chain are exactly what they were
// with one special prime; the nominal budget logQ + α·SpecialBits and the
// materialized parameters' LogQP (chain plus every special prime, measured
// on the generated primes) both fit the security table at that degree; α is
// the cheapest admissible candidate; and P covers the largest digit, which
// is what keeps key-switch noise at the rounding level.
func TestSpecialPrimesSpendOnlySlack(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every network at two security levels; run without -short")
	}
	type rowKey struct {
		model    string
		security int
		policy   string
	}
	seen := map[rowKey]bool{}
	for _, m := range nn.All() {
		for _, sec := range []int{128, 192} {
			comp, err := compileZoo(m.Circuit, SchemeRNS, sec)
			if err != nil {
				if m.Name == "SqueezeNet-CIFAR" && sec == 192 {
					continue // infeasible before and after
				}
				t.Fatalf("%s at %d bits: %v", m.Name, sec, err)
			}
			budget := float64(MaxLogQ(comp.Best.LogN, sec))
			for _, r := range comp.Trace {
				seen[rowKey{m.Name, sec, r.Policy.String()}] = true
				if r.SpecialPrimes < 1 || r.SpecialPrimes > len(r.RNSChainBits) {
					t.Fatalf("%s/%d/%v: α = %d outside [1, %d]", m.Name, sec, r.Policy, r.SpecialPrimes, len(r.RNSChainBits))
				}
				if nominal := r.LogQ + float64(r.SpecialPrimes*r.SpecialBits); nominal > float64(MaxLogQ(r.LogN, sec)) {
					t.Errorf("%s/%d/%v: logQ %.0f + %d×%d special bits exceeds the budget %d at N=2^%d",
						m.Name, sec, r.Policy, r.LogQ, r.SpecialPrimes, r.SpecialBits, MaxLogQ(r.LogN, sec), r.LogN)
				}
				// α is the argmin of its own candidate list, smallest on ties,
				// and the list is every admissible α in order.
				for i, c := range r.SpecialTrace {
					if c.Alpha != i+1 {
						t.Fatalf("%s/%d/%v: candidate %d has α = %d", m.Name, sec, r.Policy, i, c.Alpha)
					}
					chosen := r.SpecialTrace[r.SpecialPrimes-1].KeySwitchCost
					if c.KeySwitchCost < chosen || (c.KeySwitchCost == chosen && c.Alpha < r.SpecialPrimes) {
						t.Errorf("%s/%d/%v: α = %d (cost %g) chosen over α = %d (cost %g)",
							m.Name, sec, r.Policy, r.SpecialPrimes, chosen, c.Alpha, c.KeySwitchCost)
					}
				}
				if next := len(r.SpecialTrace) + 1; next <= len(r.RNSChainBits) &&
					r.LogQ+float64(next*r.SpecialBits) <= float64(MaxLogQ(r.LogN, sec)) {
					t.Errorf("%s/%d/%v: α = %d is admissible but was not considered", m.Name, sec, r.Policy, next)
				}
			}

			// The winning policy's parameters, materialized.
			params, err := RNSParameters(comp)
			if err != nil {
				t.Fatalf("%s at %d bits: %v", m.Name, sec, err)
			}
			if params.LogQP() > budget || params.LogQP() <= params.LogQTotal() {
				t.Errorf("%s/%d: LogQP %.1f (chain %.1f) against a budget of %.0f", m.Name, sec, params.LogQP(), params.LogQTotal(), budget)
			}
			bigP := big.NewInt(1)
			for _, p := range params.SpecialPrimes() {
				bigP.Mul(bigP, new(big.Int).SetUint64(p))
			}
			chain := params.QChain()
			for lo := 0; lo < len(chain); lo += params.Alpha() {
				digit := big.NewInt(1)
				for _, q := range chain[lo:min(lo+params.Alpha(), len(chain))] {
					digit.Mul(digit, new(big.Int).SetUint64(q))
				}
				if bigP.Cmp(digit) < 0 {
					t.Errorf("%s/%d: P (%d bits) is below the digit at chain row %d (%d bits)", m.Name, sec, bigP.BitLen(), lo, digit.BitLen())
				}
			}
		}
	}

	for _, want := range oneSpecialParams {
		comp, err := compileZoo(nnByName(t, want.model), SchemeRNS, want.security)
		if err != nil {
			t.Fatalf("%s at %d bits: %v", want.model, want.security, err)
		}
		found := false
		for _, r := range comp.Trace {
			if r.Policy.String() != want.policy {
				continue
			}
			found = true
			if r.LogN != want.logN || len(r.RNSChainBits) != want.primes || math.Abs(r.LogQ-want.logQ) > 1e-9 {
				t.Errorf("%s/%d/%s: N=2^%d with %d chain primes (%.0f bits); with one special prime N=2^%d with %d (%.0f bits)",
					want.model, want.security, want.policy, r.LogN, len(r.RNSChainBits), r.LogQ, want.logN, want.primes, want.logQ)
			}
		}
		if !found {
			t.Errorf("%s/%d/%s compiles with one special prime and no longer does", want.model, want.security, want.policy)
		}
		delete(seen, rowKey{want.model, want.security, want.policy})
	}
	for k := range seen {
		t.Errorf("%s/%d/%s compiles but has no pinned one-special-prime parameters", k.model, k.security, k.policy)
	}
}

func nnByName(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	m, err := nn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m.Circuit
}

// TestSpecialPrimesDeterministic: the choice is a pure function of the
// circuit and options — two compilations agree on α, on every candidate's
// modelled cost bit for bit, and hence on the fingerprint.
func TestSpecialPrimesDeterministic(t *testing.T) {
	c, _ := testCNN()
	opts := Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 13}
	a, err := Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := Compile(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatal("recompiling changed the fingerprint")
		}
		for p := range a.Trace {
			ra, rb := a.Trace[p], b.Trace[p]
			if ra.SpecialPrimes != rb.SpecialPrimes || len(ra.SpecialTrace) != len(rb.SpecialTrace) {
				t.Fatalf("policy %v: α %d vs %d", ra.Policy, ra.SpecialPrimes, rb.SpecialPrimes)
			}
			for k := range ra.SpecialTrace {
				if ra.SpecialTrace[k] != rb.SpecialTrace[k] {
					t.Fatalf("policy %v candidate %d: %+v vs %+v", ra.Policy, k, ra.SpecialTrace[k], rb.SpecialTrace[k])
				}
			}
		}
	}
	// With the security check off nothing bounds α but the chain length.
	if got, want := len(a.Best.SpecialTrace), len(a.Best.RNSChainBits); got != want {
		t.Fatalf("insecure compile weighed %d candidates, want all %d", got, want)
	}
	// The fingerprint covers α: a peer that disagrees on it is refused.
	flipped := *a
	flipped.Best.SpecialPrimes++
	if flipped.Fingerprint() == a.Fingerprint() {
		t.Fatal("changing the special-prime count did not change the fingerprint")
	}
}

// TestKeySwitchCostMatchesCostPass: repricing the parameter pass's histogram
// at the chosen α must equal what the cost pass charges for key switches
// when it actually runs at that α — the histogram is a faithful stand-in for
// one analysis run per candidate.
func TestKeySwitchCostMatchesCostPass(t *testing.T) {
	src, _ := testCNN()
	comp, err := Compile(src, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	opts := comp.Options
	best := comp.Best
	mk := func(special int, model *CostModel) *Analysis {
		a := NewAnalysis(AnalysisConfig{
			Scheme: SchemeRNS, Slots: 1 << uint(best.LogN-1),
			RNSPrimeBits: opts.RNSPrimeBits, MagMarginBits: opts.MagMarginBits,
			CostPrimes: float64(len(best.RNSChainBits)), CostSpecial: special, Model: model,
		})
		if err := runAnalysis(comp.Program.Circuit, best.Policy, opts, a, opts.Scales); err != nil {
			t.Fatal(err)
		}
		return a
	}
	// A model that charges only key switches isolates them in Cost().
	ksOnly := DefaultCostModel(SchemeRNS)
	ksOnly.CAdd, ksOnly.CScalarMul, ksOnly.CPlainMul, ksOnly.CRescale = 0, 0, 0, 0
	for _, cand := range best.SpecialTrace {
		run := mk(cand.Alpha, &ksOnly)
		want := run.KeySwitchCost(DefaultCostModel(SchemeRNS), float64(len(best.RNSChainBits)), cand.Alpha)
		if got := run.Cost(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("α=%d: cost pass charges %g for key switches, histogram reprices to %g", cand.Alpha, got, want)
		}
		if math.Abs(cand.KeySwitchCost-want) > 1e-9*want {
			t.Fatalf("α=%d: candidate cost %g, histogram of a fresh run %g", cand.Alpha, cand.KeySwitchCost, want)
		}
	}
}
