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
// the chains and again when the RNS default scales became one chain prime
// each). Choosing more special primes spends slack the security table
// leaves at that ring degree; it may never buy itself a larger N or a longer
// chain.
var oneSpecialParams = []struct {
	model        string
	security     int
	policy       string
	logN, primes int
	logQ         float64
}{
	{"LeNet-5-small", 128, "HW", 15, 12, 492},
	{"LeNet-5-small", 128, "CHW", 15, 14, 572},
	{"LeNet-5-small", 128, "HW-conv/CHW-rest", 15, 16, 652},
	{"LeNet-5-small", 128, "CHW-fc/HW-before", 15, 12, 492},
	{"LeNet-5-small", 192, "HW", 15, 12, 492},
	{"LeNet-5-small", 192, "CHW", 16, 14, 572},
	{"LeNet-5-small", 192, "HW-conv/CHW-rest", 16, 16, 652},
	{"LeNet-5-small", 192, "CHW-fc/HW-before", 15, 12, 492},
	{"LeNet-5-medium", 128, "HW", 15, 12, 492},
	{"LeNet-5-medium", 128, "CHW", 15, 14, 572},
	{"LeNet-5-medium", 128, "HW-conv/CHW-rest", 15, 16, 652},
	{"LeNet-5-medium", 128, "CHW-fc/HW-before", 15, 12, 492},
	{"LeNet-5-medium", 192, "HW", 15, 12, 492},
	{"LeNet-5-medium", 192, "CHW", 16, 14, 572},
	{"LeNet-5-medium", 192, "HW-conv/CHW-rest", 16, 16, 652},
	{"LeNet-5-medium", 192, "CHW-fc/HW-before", 15, 12, 492},
	{"LeNet-5-large", 128, "HW", 15, 13, 532},
	{"LeNet-5-large", 128, "CHW", 15, 15, 612},
	{"LeNet-5-large", 128, "HW-conv/CHW-rest", 15, 16, 652},
	{"LeNet-5-large", 128, "CHW-fc/HW-before", 15, 13, 532},
	{"LeNet-5-large", 192, "HW", 15, 13, 532},
	{"LeNet-5-large", 192, "CHW", 16, 15, 612},
	{"LeNet-5-large", 192, "HW-conv/CHW-rest", 16, 16, 652},
	{"LeNet-5-large", 192, "CHW-fc/HW-before", 15, 13, 532},
	{"Industrial", 128, "HW", 16, 21, 852},
	{"Industrial", 128, "CHW", 16, 21, 852},
	{"Industrial", 128, "HW-conv/CHW-rest", 16, 25, 1012},
	{"Industrial", 128, "CHW-fc/HW-before", 16, 21, 852},
	{"Industrial", 192, "HW", 16, 21, 852},
	{"Industrial", 192, "CHW", 16, 21, 852},
	{"Industrial", 192, "HW-conv/CHW-rest", 16, 25, 1012},
	{"Industrial", 192, "CHW-fc/HW-before", 16, 21, 852},
	{"SqueezeNet-CIFAR", 128, "HW", 16, 25, 1012},
	{"SqueezeNet-CIFAR", 128, "CHW", 16, 31, 1252},
	{"SqueezeNet-CIFAR", 128, "HW-conv/CHW-rest", 16, 42, 1692},
	{"SqueezeNet-CIFAR", 128, "CHW-fc/HW-before", 16, 25, 1012},
	{"SqueezeNet-CIFAR", 192, "HW", 16, 25, 1012},
	{"SqueezeNet-CIFAR", 192, "CHW-fc/HW-before", 16, 25, 1012},
	// SqueezeNet-CIFAR at 192 bits: CHW and HW-conv/CHW-rest fit no ring degree up to 2^16.
}

// TestSpecialPrimesSpendOnlySlack is the security accounting of the
// special-prime choice, over every zoo network at 128 and 192 bits and every
// layout policy: the ring degree and the chain are exactly what they were
// with one special prime; the nominal budget logQ + α·SpecialBits and the
// materialized parameters' LogQP (chain plus every special prime, measured
// on the generated primes) both fit the security table at that degree; the
// candidates are every admissible α, each with special primes of
// min(60, ⌊slack/α⌋) bits; α is the cheapest of them; and at every level
// the special primes a key switch works over cover that level's largest
// digit — by at least 8 bits for α > 1 — which is what keeps key-switch
// noise at the rounding level.
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
			for _, r := range comp.Trace {
				seen[rowKey{m.Name, sec, r.Policy.String()}] = true
				budget := MaxLogQ(r.LogN, sec)
				if r.SpecialPrimes < 1 || r.SpecialPrimes > len(r.RNSChainBits) {
					t.Fatalf("%s/%d/%v: α = %d outside [1, %d]", m.Name, sec, r.Policy, r.SpecialPrimes, len(r.RNSChainBits))
				}
				if nominal := r.LogQ + float64(r.SpecialPrimes*r.SpecialBits); nominal > float64(budget) {
					t.Errorf("%s/%d/%v: logQ %.0f + %d×%d special bits exceeds the budget %d at N=2^%d",
						m.Name, sec, r.Policy, r.LogQ, r.SpecialPrimes, r.SpecialBits, budget, r.LogN)
				}
				// The candidates are exactly the admissible α in order, each
				// with its own size: min(60, ⌊slack/α⌋) bits, and for α > 1 a
				// P at least 8 bits above the largest digit. α is the argmin
				// of that list, smallest on ties, and carries its size.
				var admissible []SpecialCandidate
				for alpha := 1; alpha <= len(r.RNSChainBits); alpha++ {
					bits := min(60, (budget-int(r.LogQ))/alpha)
					if alpha == 1 || alpha*bits >= largestDigitBits(r.RNSChainBits, alpha)+8 {
						admissible = append(admissible, SpecialCandidate{Alpha: alpha, Bits: bits})
					}
				}
				if len(r.SpecialTrace) != len(admissible) {
					t.Fatalf("%s/%d/%v: %d candidates weighed, %d admissible", m.Name, sec, r.Policy, len(r.SpecialTrace), len(admissible))
				}
				var chosen SpecialCandidate
				for _, c := range r.SpecialTrace {
					if c.Alpha == r.SpecialPrimes {
						chosen = c
					}
				}
				if chosen.Bits != r.SpecialBits {
					t.Errorf("%s/%d/%v: α = %d with %d-bit special primes, its candidate has %d", m.Name, sec, r.Policy, r.SpecialPrimes, r.SpecialBits, chosen.Bits)
				}
				for i, c := range r.SpecialTrace {
					if c.Alpha != admissible[i].Alpha || c.Bits != admissible[i].Bits {
						t.Fatalf("%s/%d/%v: candidate %d is α = %d at %d bits, want α = %d at %d", m.Name, sec, r.Policy, i, c.Alpha, c.Bits, admissible[i].Alpha, admissible[i].Bits)
					}
					if c.Cost < chosen.Cost || (c.Cost == chosen.Cost && c.Alpha < r.SpecialPrimes) {
						t.Errorf("%s/%d/%v: α = %d (cost %g) chosen over α = %d (cost %g)",
							m.Name, sec, r.Policy, r.SpecialPrimes, chosen.Cost, c.Alpha, c.Cost)
					}
				}
			}

			// The winning policy's parameters, materialized.
			budget := float64(MaxLogQ(comp.Best.LogN, sec))
			params, err := RNSParameters(comp)
			if err != nil {
				t.Fatalf("%s at %d bits: %v", m.Name, sec, err)
			}
			if params.LogQP() > budget || params.LogQP() <= params.LogQTotal() {
				t.Errorf("%s/%d: LogQP %.1f (chain %.1f) against a budget of %.0f", m.Name, sec, params.LogQP(), params.LogQTotal(), budget)
			}
			// At every level the special primes a key switch works over
			// cover each of that level's digits, by 8 bits for α > 1. Below
			// level α-1 that takes the live count, not all of P: special
			// primes sized to the slack can be smaller than the base prime.
			margin := 0
			if params.Alpha() > 1 {
				margin = 8
			}
			chain, special := params.QChain(), params.SpecialPrimes()
			for level := range chain {
				k := params.LiveSpecial(level)
				if k < 1 || k > params.Alpha() || (level > 0 && k < params.LiveSpecial(level-1)) {
					t.Fatalf("%s/%d: %d live special primes at level %d (α = %d, %d at the level below)",
						m.Name, sec, k, level, params.Alpha(), params.LiveSpecial(max(level-1, 0)))
				}
				pLive := big.NewInt(1)
				for _, p := range special[:k] {
					pLive.Mul(pLive, new(big.Int).SetUint64(p))
				}
				for lo := 0; lo <= level; lo += params.Alpha() {
					digit := big.NewInt(1)
					for _, q := range chain[lo:min(lo+params.Alpha(), level+1)] {
						digit.Mul(digit, new(big.Int).SetUint64(q))
					}
					if pLive.Cmp(digit) < 0 || pLive.BitLen() < digit.BitLen()+margin {
						t.Errorf("%s/%d: at level %d, P_%d (%d bits) is not %d bits above the digit at chain row %d (%d bits)",
							m.Name, sec, level, k, pLive.BitLen(), margin, lo, digit.BitLen())
					}
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
