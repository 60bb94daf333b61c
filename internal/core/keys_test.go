package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
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
// of the four layout policies.
func TestRuntimeRotationsWithinCompiledKeys(t *testing.T) {
	circuits := []*circuit.Circuit{
		nn.LeNetTiny().Circuit, nn.LeNet5Small().Circuit, nn.DeepMLP(6).Circuit,
		denseHeavyCircuit(1), denseHeavyCircuit(2), denseHeavyCircuit(3),
	}
	if !testing.Short() {
		circuits = append(circuits, nn.LeNet5Medium().Circuit, nn.Industrial().Circuit, nn.SqueezeNetCIFAR().Circuit)
	}
	for _, c := range circuits {
		for _, policy := range htc.AllPolicies {
			comp, err := Compile(c, Options{
				Scheme: SchemeRNS, SecurityBits: -1, MinLogN: 10,
				Policies: []htc.LayoutPolicy{policy}, ScaleMode: ScaleLazy,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, policy, err)
			}
			slots := 1 << uint(comp.Best.LogN-1)
			keys := make(map[int]bool, len(comp.Best.Rotations))
			for _, r := range comp.Best.Rotations {
				keys[r] = true
			}

			var mu sync.Mutex
			missing := map[int]bool{}
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
				if amount = (amount%slots + slots) % slots; !keys[amount] {
					missing[amount] = true
				}
			})
			enc := htc.EncryptTensor(&b, tensor.New(c.Input.OutShape...), comp.Plan(), comp.Options.Scales)
			htc.ExecuteOpts(&b, c, enc, policy, comp.Options.Scales, htc.ExecOptions{
				Workers: 4, Scale: htc.PlanPolicy{Plan: comp.ScalePlan},
			})
			if len(missing) > 0 {
				t.Errorf("%s/%v: runtime rotated by %v, not among the %d compiled keys", c.Name, policy, missing, len(keys))
			}
			if issued != comp.Best.RotationOps {
				t.Errorf("%s/%v: runtime issued %d rotations, the compiler counted %d", c.Name, policy, issued, comp.Best.RotationOps)
			}
		}
	}
}
