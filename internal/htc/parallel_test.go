package htc

import (
	"math"
	"sync"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// execBoth runs the circuit serially and with 8 workers on the same backend
// and input ciphertext, returning both decrypted outputs.
func execBoth(b hisa.Backend, m *nn.Model, img *tensor.Tensor, policy LayoutPolicy, sc Scales) (serial, parallel *tensor.Tensor) {
	in := EncryptTensor(b, img, PlanFor(m.Circuit, policy), sc)
	serial = DecryptTensor(b, Execute(b, m.Circuit, in, policy, sc))
	parallel = DecryptTensor(b, ExecuteOpts(b, m.Circuit, in, policy, sc, ExecOptions{Workers: 8}))
	return serial, parallel
}

func requireBitIdentical(t *testing.T, name string, serial, parallel *tensor.Tensor) {
	t.Helper()
	if serial.Size() != parallel.Size() {
		t.Fatalf("%s: size mismatch: %d vs %d", name, serial.Size(), parallel.Size())
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("%s: slot %d: parallel %v != serial %v (not bit-identical)",
				name, i, parallel.Data[i], serial.Data[i])
		}
	}
}

// TestParallelExecuteDeterministicRef checks that Workers=8 execution of
// LeNet-5-small is bit-identical to serial execution on the reference
// backend, for all four layout policies: the kernels compute per-output
// work in parallel but fold accumulations in serial program order.
func TestParallelExecuteDeterministicRef(t *testing.T) {
	m := nn.LeNet5Small()
	img := nn.SyntheticImage(m.InputShape, 7)
	for _, policy := range AllPolicies {
		b := hisa.NewRefBackend(4096)
		sc := DefaultScales()
		serial, parallel := execBoth(b, m, img, policy, sc)
		requireBitIdentical(t, "ref/"+policy.String(), serial, parallel)
	}
}

// TestParallelExecuteDeterministicSim is the same check on the simulation
// backend, whose noise-estimate bookkeeping rides along with every op.
// NoNoise decryption keeps the comparison exact.
func TestParallelExecuteDeterministicSim(t *testing.T) {
	m := nn.LeNet5Small()
	img := nn.SyntheticImage(m.InputShape, 7)
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(30), Pu: math.Exp2(30), Pm: math.Exp2(25)}
	for _, policy := range AllPolicies {
		b := hisa.NewSimBackend(hisa.SimParams{LogN: 13, LogQ: 2400, Seed: 5, NoNoise: true})
		serial, parallel := execBoth(b, m, img, policy, sc)
		requireBitIdentical(t, "sim/"+policy.String(), serial, parallel)
	}
}

// TestParallelExecuteDeterministicRNS runs the small test CNN on the real
// RNS-CKKS backend: all evaluator ops are deterministic and the parallel
// schedule folds in serial order, so even lattice execution is
// bit-identical between Workers=1 and Workers=8.
func TestParallelExecuteDeterministicRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	c, img := testCNN()
	logQ := []int{50}
	for i := 0; i < 15; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 11, LogQ: logQ, LogP: 50, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(99)})
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}

	in := EncryptTensor(b, img, PlanFor(c, PolicyCHW), sc)
	serial := DecryptTensor(b, Execute(b, c, in, PolicyCHW, sc))
	parallel := DecryptTensor(b, ExecuteOpts(b, c, in, PolicyCHW, sc, ExecOptions{Workers: 8}))
	requireBitIdentical(t, "rns/CHW", serial, parallel)

	// And the values are right, not merely consistent with each other.
	want := c.Evaluate(img)
	got := parallel.Reshape(parallel.Size())
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("rns parallel output diverges from plaintext reference at %d: %v vs %v",
				i, got.Data[i], want.Data[i])
		}
	}
}

// TestRotCacheSingleFlight hammers one rotation cache from 8 goroutines
// (run with -race): every worker must observe the same ciphertext per
// amount, and the backend must see each rotation exactly once.
func TestRotCacheSingleFlight(t *testing.T) {
	inner := hisa.NewRefBackend(64)
	m := hisa.NewMeter(inner, func(x int) int { return 1 })
	base := m.Encrypt(m.Encode([]float64{1, 2, 3, 4}, 1<<20))
	rc := newRotCache(m, base)

	const workers, amounts = 8, 5
	got := make([][amounts]hisa.Ciphertext, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for r := 1; r <= amounts; r++ {
					got[w][r-1] = rc.get(r)
				}
			}
		}(w)
	}
	wg.Wait()

	for r := 0; r < amounts; r++ {
		for w := 1; w < workers; w++ {
			if got[w][r] != got[0][r] {
				t.Fatalf("rotation %d: worker %d saw a different ciphertext than worker 0", r+1, w)
			}
		}
	}
	if n := m.Counts().Rotations(); n != amounts {
		t.Fatalf("backend saw %d rotations, want %d (single-flight violated)", n, amounts)
	}
}
