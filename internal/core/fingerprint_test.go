package core

import (
	"math"
	"testing"

	"chet/internal/htc"
)

// fpBaseOptions compiles fast: a small insecure ring is enough because the
// fingerprint is about identity, not security.
func fpBaseOptions() Options {
	return Options{
		Scheme:       SchemeRNS,
		SecurityBits: -1,
		MinLogN:      6,
		MaxLogN:      8,
	}
}

func fpCompile(t *testing.T, opts Options) *Compiled {
	t.Helper()
	c, _ := testCNN()
	comp, err := Compile(c, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return comp
}

func TestFingerprintStable(t *testing.T) {
	a := fpCompile(t, fpBaseOptions())
	b := fpCompile(t, fpBaseOptions())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two identical compilations disagree on fingerprint")
	}
	if len(a.FingerprintHex()) != 64 {
		t.Fatalf("hex fingerprint has length %d, want 64", len(a.FingerprintHex()))
	}
	// Explicitly writing a default must agree with omitting it: Options are
	// stored after fillDefaults.
	explicit := fpBaseOptions()
	explicit.RNSPrimeBits = 40 // the default
	if fpCompile(t, explicit).Fingerprint() != a.Fingerprint() {
		t.Fatal("explicit default changed the fingerprint")
	}
}

// TestFingerprintFlipsOnOptionsChange checks that every meaningful Options
// mutation yields a distinct fingerprint — the property the session-open
// handshake relies on to reject mismatched compilations.
func TestFingerprintFlipsOnOptionsChange(t *testing.T) {
	base := fpCompile(t, fpBaseOptions())

	mutations := map[string]func(*Options){
		"Scheme": func(o *Options) { o.Scheme = SchemeCKKS },
		"Scales.Pc": func(o *Options) {
			o.Scales = htc.Scales{Pc: math.Exp2(41), Pw: math.Exp2(35), Pu: math.Exp2(35), Pm: math.Exp2(30)}
		},
		"SecurityBits": func(o *Options) { o.SecurityBits = 128; o.MinLogN = 12; o.MaxLogN = 15 },
		"RNSPrimeBits": func(o *Options) { o.RNSPrimeBits = 35 },
		"MagMargin":    func(o *Options) { o.MagMarginBits = 14 },
		"MinLogN":      func(o *Options) { o.MinLogN = 7 },
		"MaxLogN":      func(o *Options) { o.MaxLogN = 9 },
		"Policies":     func(o *Options) { o.Policies = []htc.LayoutPolicy{htc.PolicyCHW} },
		"CostModel": func(o *Options) {
			m := DefaultCostModel(SchemeRNS)
			m.CRotate *= 2
			o.CostModel = &m
		},
		"PowerOfTwoRotationsOnly": func(o *Options) { o.PowerOfTwoRotationsOnly = true },
		"CostThreads":             func(o *Options) { o.CostThreads = 4 },
	}

	for name, mutate := range mutations {
		opts := fpBaseOptions()
		mutate(&opts)
		comp := fpCompile(t, opts)
		if comp.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintFlipsOnPackingOptions isolates the v3 additions — Batch and
// Complex — on a ring large enough for batched lanes (the tiny fpBaseOptions
// ring cannot hold batch 2, which would conflate the mutation with a LogN
// change). A real-batched, a complex-packed, and an unbatched compilation
// must all disagree pairwise.
func TestFingerprintFlipsOnPackingOptions(t *testing.T) {
	base := fpBaseOptions()
	base.MinLogN, base.MaxLogN = 9, 10

	batch := base
	batch.Batch = 2
	cplx := base
	cplx.Batch = 2
	cplx.Complex = true

	fps := map[string]string{
		"plain":   fpCompile(t, base).FingerprintHex(),
		"batch":   fpCompile(t, batch).FingerprintHex(),
		"complex": fpCompile(t, cplx).FingerprintHex(),
	}
	seen := map[string]string{}
	for name, fp := range fps {
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share a fingerprint", name, other)
		}
		seen[fp] = name
	}
}

// TestFingerprintV7Golden pins the canonical v7 encoding to a known digest.
// The fingerprint is a wire-visible contract — both sides of the session-open
// handshake must compute the same bytes — so any change to the byte layout
// must come with a version bump (fpVersion), not a silent drift. If this test
// fails and you did not intend an encoding change, you broke compatibility
// with deployed peers; if you did intend it, bump fpVersion and refresh the
// constant below. The digest also covers what the compiler decided — a kernel
// change that moves this compilation's rotation-key set or key plan (the
// packed Dense did) moves it with the byte layout and the version unchanged;
// paste the digest the failing run prints.
func TestFingerprintV7Golden(t *testing.T) {
	const want = "10907a14a98d007ad7db856d8530383e9518a652f9738ad49ef287adce9ea547"
	if got := fpCompile(t, fpBaseOptions()).FingerprintHex(); got != want {
		t.Fatalf("fingerprint v7 golden mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestFingerprintFlipsOnKeyPlan: parties that would cut one key at another
// level cannot exchange keys, so their fingerprints differ.
func TestFingerprintFlipsOnKeyPlan(t *testing.T) {
	comp := fpCompile(t, fpBaseOptions())
	if comp.Keys == nil || len(comp.Keys.Rotations) == 0 {
		t.Fatal("an RNS compilation has no key plan")
	}
	before := comp.FingerprintHex()
	for k, level := range comp.Keys.Rotations {
		comp.Keys.Rotations[k] = level + 1
		break
	}
	if comp.FingerprintHex() == before {
		t.Fatal("the fingerprint does not cover the key plan")
	}
}

// TestFingerprintFlipsOnCircuitChange checks the weight and structure
// sensitivity: same options, different circuit contents.
func TestFingerprintFlipsOnCircuitChange(t *testing.T) {
	c, _ := testCNN()
	base, err := Compile(c, fpBaseOptions())
	if err != nil {
		t.Fatal(err)
	}

	c2, _ := testCNN()
	// Perturb one weight: execution stays compatible but predictions differ,
	// which the fingerprint must expose.
	for _, n := range c2.Nodes {
		if n.Weights != nil {
			n.Weights.Data[0] += 1e-3
			break
		}
	}
	changed, err := Compile(c2, fpBaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if changed.Fingerprint() == base.Fingerprint() {
		t.Fatal("weight perturbation did not change the fingerprint")
	}
}
