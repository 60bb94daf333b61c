package htc

import (
	"math"
	"testing"

	"chet/internal/circuit"
	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// execVariants runs the circuit on one backend and input ciphertext
// serially and on `workers` goroutines, each without and with a constant
// store (one store, shared by both runs that use it), and returns the
// decrypted outputs, the serial run without a store first.
func execVariants(b hisa.Backend, c *circuit.Circuit, img *tensor.Tensor, policy LayoutPolicy, sc Scales, workers int) (names []string, outs []*tensor.Tensor) {
	in := EncryptTensor(b, PlanFor(c, policy), sc, img)
	store := NewConstants()
	for _, v := range []struct {
		name string
		opts ExecOptions
	}{
		{"serial", ExecOptions{}},
		{"parallel", ExecOptions{Workers: workers}},
		{"serial+store", ExecOptions{Constants: store}},
		{"parallel+store", ExecOptions{Workers: workers, Constants: store}},
	} {
		names = append(names, v.name)
		outs = append(outs, DecryptTensor(b, Execute(b, c, in, policy, sc, v.opts), 1)[0])
	}
	return names, outs
}

// requireVariantsBitIdentical checks every output of execVariants against
// the first.
func requireVariantsBitIdentical(t *testing.T, name string, names []string, outs []*tensor.Tensor) {
	t.Helper()
	for i := 1; i < len(outs); i++ {
		requireBitIdentical(t, name+"/"+names[i], outs[0], outs[i])
	}
}

func requireBitIdentical(t *testing.T, name string, serial, parallel *tensor.Tensor) {
	t.Helper()
	if serial.Size() != parallel.Size() {
		t.Fatalf("%s: size mismatch: %d vs %d", name, serial.Size(), parallel.Size())
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("%s: slot %d: %v != serial %v (not bit-identical)",
				name, i, parallel.Data[i], serial.Data[i])
		}
	}
}

// TestParallelExecuteDeterministicRef checks that Workers=8 execution of
// LeNet-5-small is bit-identical to serial execution on the reference
// backend, for all four layout policies: the kernels compute per-output work
// in parallel but fold accumulations in serial program order. Handing the
// kernels a constant store changes nothing either (the mocks encode per
// call whether or not they get one).
func TestParallelExecuteDeterministicRef(t *testing.T) {
	m := nn.LeNet5Small()
	img := nn.SyntheticImage(m.InputShape, 7)
	for _, policy := range AllPolicies {
		b := hisa.NewRefBackend(4096)
		names, outs := execVariants(b, m.Circuit, img, policy, DefaultScales(), 8)
		requireVariantsBitIdentical(t, "ref/"+policy.String(), names, outs)
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
		names, outs := execVariants(b, m.Circuit, img, policy, sc, 8)
		requireVariantsBitIdentical(t, "sim/"+policy.String(), names, outs)
	}
}

// rnsTestBackend is a real RNS-CKKS backend at N = 2^11 with a chain deep
// enough for the small test networks.
func rnsTestBackend(t *testing.T) *hisa.RNSBackend {
	t.Helper()
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
	return hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(99)})
}

// TestParallelExecuteDeterministicRNS runs LeNet-tiny on the real RNS-CKKS
// backend: all evaluator ops are deterministic, the parallel schedule folds
// in serial order, Workers also fans every instruction's limbs, and stored
// plaintexts sit at their ciphertexts' levels — so even lattice execution is
// bit-identical between Workers=1 and Workers=4, with and without a
// constant store.
func TestParallelExecuteDeterministicRNS(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	b := rnsTestBackend(t)
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	m := nn.LeNetTiny()
	img := nn.SyntheticImage(m.InputShape, 7)
	names, outs := execVariants(b, m.Circuit, img, PolicyCHW, sc, 4)
	requireVariantsBitIdentical(t, "rns/CHW", names, outs)

	// And the values are right, not merely consistent with each other.
	want := m.Circuit.Evaluate(img)
	got := outs[len(outs)-1]
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("rns parallel output diverges from plaintext reference at %d: %v vs %v",
				i, got.Data[i], want.Data[i])
		}
	}
}
