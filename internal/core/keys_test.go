package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// denseHeavyCircuit generates a circuit that is mostly Dense layers of
// awkward sizes (primes, non-powers of two, 1) behind a small conv front, so
// the packed kernel's R, copy span and output grid change from layer to
// layer.
func denseHeavyCircuit(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(fmt.Sprintf("dense-heavy-%d", seed))
	c, hw := 1+rng.Intn(3), 5+rng.Intn(4)
	x := b.Input(c, hw, hw)
	cout := 2 + rng.Intn(3)
	x = b.Conv2D(x, randTensor([]int{cout, c, 3, 3}, 0.3, seed+1), nil, 1, 1, "conv")
	x = b.AvgPool2D(x, 2, 2, "pool")
	x = b.Flatten(x, "flat")
	in := cout * (hw / 2) * (hw / 2)
	dense := func(x *circuit.Node, out, i int) *circuit.Node {
		x = b.Dense(x, randTensor([]int{out, in}, 0.3, seed+int64(10+i)), randTensor([]int{out}, 0.1, seed+int64(20+i)), fmt.Sprintf("fc%d", i))
		in = out
		return b.Activation(x, 0.1, 0.9, fmt.Sprintf("act%d", i))
	}
	outs := []int{[]int{12, 16, 24}[rng.Intn(3)], []int{7, 9, 13}[rng.Intn(3)], 6 + rng.Intn(10), 1 + rng.Intn(4)}
	for i, out := range outs[:3] {
		x = dense(x, out, i+1)
	}
	// A residual block: skip and branch are Dense outputs of one size, on
	// the different grids their inputs' spans gave them.
	x = b.Add(x, dense(x, in, 5), "res")
	return b.Build(dense(x, outs[3], 4))
}

// TestRuntimeRotationsWithinCompiledKeys is the rotation-keys promise
// (Section 5.4) as a property: every rotation amount a parallel runtime
// execution asks its backend for is a key the compiler selected, under each
// of the four layout policies, the key plan names exactly those keys, and
// the program applies every one of them — also for batched compiles
// (LeNet-tiny, Batch 8 at N = 2^11, real and complex packing), whose lanes
// the client fills, so no key exists only to pack them. Its level half: on
// the real lattice backend, whose keys are cut where the plan says, no key
// switch of LeNet-tiny, LeNet-5-small, NN-6, the generated Dense-heavy
// circuits or the batched compiles runs above its key's level
// (TestBootstrapEndToEnd checks the same of NN-6 under bootstrapping).
func TestRuntimeRotationsWithinCompiledKeys(t *testing.T) {
	circuits := []*circuit.Circuit{
		nn.LeNetTiny().Circuit, nn.LeNet5Small().Circuit, nn.DeepMLP(6).Circuit,
		denseHeavyCircuit(1), denseHeavyCircuit(2), denseHeavyCircuit(3),
	}
	onLattice := len(circuits) // the larger networks below take minutes there
	if !testing.Short() {
		circuits = append(circuits, nn.LeNet5Medium().Circuit, nn.Industrial().Circuit, nn.SqueezeNetCIFAR().Circuit)
	}
	for i, c := range circuits {
		for _, policy := range htc.AllPolicies {
			comp, err := Compile(c, Options{
				Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 10,
				Policies: []htc.LayoutPolicy{policy},
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, policy, err)
			}
			name := fmt.Sprintf("%s/%v", c.Name, policy)
			if i < onLattice {
				keyLevelsWithinPlan(t, name, comp, c)
			}
			runtimeRotationsWithinKeys(t, name, comp, c)
		}
	}
	c := nn.LeNetTiny().Circuit
	for _, complexPack := range []bool{false, true} {
		comp, err := Compile(c, Options{
			Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11,
			Batch: 8, Complex: complexPack,
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/batch 8/complex %v", c.Name, complexPack)
		keyLevelsWithinPlan(t, name, comp, c)
		runtimeRotationsWithinKeys(t, name, comp, c)
	}
}

// runtimeRotationsWithinKeys executes comp on the plaintext backend with 4
// workers and checks every rotation it issues against the compiled keys and
// the compiler's rotation count, and that every planned key is applied at
// least once.
func runtimeRotationsWithinKeys(t *testing.T, name string, comp *Compiled, c *circuit.Circuit) {
	t.Helper()
	slots := 1 << uint(comp.Best.LogN-1)
	keys := make(map[int]bool, len(comp.Best.Rotations))
	for _, r := range comp.Best.Rotations {
		keys[r] = true
		if _, ok := comp.Keys.Rotations[r]; !ok {
			t.Errorf("%s: compiled rotation key %d is not in the key plan", name, r)
		}
	}
	if len(comp.Keys.Rotations) != len(keys) {
		t.Errorf("%s: key plan holds %d rotations, the compiler selected %d", name, len(comp.Keys.Rotations), len(keys))
	}

	var mu sync.Mutex
	missing, used := map[int]bool{}, map[int]bool{}
	issued := 0
	b := hisa.NewInterposer(hisa.NewRefBackend(slots), "keys", nil, func(op *hisa.Op) {
		amount := op.Rot
		switch op.Kind {
		case hisa.OpRotRight:
			amount = -amount
		case hisa.OpRotLeft:
		default:
			return
		}
		mu.Lock()
		defer mu.Unlock()
		issued++
		amount = (amount%slots + slots) % slots
		used[amount] = true
		if !keys[amount] {
			missing[amount] = true
		}
	})
	enc := htc.EncryptTensor(&b, comp.Plan(), comp.Options.Scales, tensor.New(c.Input.OutShape...))
	comp.Execute(&b, enc, 4)
	if len(missing) > 0 {
		t.Errorf("%s: runtime rotated by %v, not among the %d compiled keys", name, missing, len(keys))
	}
	if issued != comp.Best.RotationOps {
		t.Errorf("%s: runtime issued %d rotations, the compiler counted %d", name, issued, comp.Best.RotationOps)
	}
	var unused []int
	for k := range comp.Keys.Rotations {
		if !used[k] {
			unused = append(unused, k)
		}
	}
	if len(unused) > 0 {
		sort.Ints(unused)
		t.Errorf("%s: %d of %d planned rotation keys are never applied: %v", name, len(unused), len(comp.Keys.Rotations), unused)
	}
}

// keyLevelsWithinPlan runs a compiled program on the real lattice backend
// with its planned keys: a key switch above its key's level would be served
// off-plan and counted (hisa.RNSBackend.KeyLevelMisses).
func keyLevelsWithinPlan(t *testing.T, name string, comp *Compiled, c *circuit.Circuit) {
	t.Helper()
	b, err := BuildBackend(comp, ring.NewTestPRNG(0x1E7E1))
	if err != nil {
		t.Fatal(err)
	}
	enc := htc.EncryptTensor(b, comp.Plan(), comp.Options.Scales, tensor.New(c.Input.OutShape...))
	comp.Execute(b, enc, 2)
	if n := b.(*hisa.RNSBackend).KeyLevelMisses(); n != 0 {
		t.Errorf("%s: %d key switches above their key's planned level", name, n)
	}
}

// TestConjugationKeyOnlyWhenUsed: the key plan provisions the conjugation
// key only for a program that conjugates — a real-packed compilation gets
// none, a complex-packed one does.
func TestConjugationKeyOnlyWhenUsed(t *testing.T) {
	c := nn.LeNetTiny().Circuit
	for _, complexPack := range []bool{false, true} {
		comp, err := Compile(c, Options{Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 10, Batch: 2, Complex: complexPack})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := BuildBackend(comp, ring.NewTestPRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		b := raw.(*hisa.RNSBackend)
		_, has := b.PublicKeys().RTKS.Keys[b.Params().Ring().GaloisElementConjugate()]
		if planned := comp.Keys.Conjugate >= 0; has != complexPack || planned != complexPack {
			t.Errorf("complex packing %v: conjugation planned %v, key provisioned %v", complexPack, planned, has)
		}
	}
}
