package chet

// One benchmark family per table and figure of the paper's evaluation
// (Section 6). Each benchmark drives the same internal/bench harness as
// cmd/chet-bench and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates every experiment. The full
// paper-scale sweep (all five networks, real-crypto measurements) is
// available via `go run ./cmd/chet-bench -exp all`.

import (
	"fmt"
	"runtime"
	"testing"

	"chet/internal/bench"
	"chet/internal/ckks"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
)

// benchModels is the sweep used inside testing.B: the two smallest networks
// keep a full -bench=. run in tens of seconds. Pass -timeout 0 and edit
// here (or use chet-bench) for the five-network sweep.
func benchModels() []*nn.Model { return bench.SmallModels() }

// BenchmarkTable1_HISAPrimitives microbenchmarks the real RNS-CKKS HISA
// primitives across modulus-chain lengths, the data behind Table 1's
// asymptotic-cost claims.
func BenchmarkTable1_HISAPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1([][2]int{{11, 2}, {11, 4}, {12, 4}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].RotateUS, "rotate-us")
	}
}

// BenchmarkTable3_NetworkInventory reproduces the network statistics table,
// including the encrypted-vs-plaintext output fidelity that substitutes for
// the paper's accuracy column.
func BenchmarkTable3_NetworkInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table3(benchModels(), true)
		b.ReportMetric(rows[len(rows)-1].OutputFidelity, "max-abs-err")
	}
}

// BenchmarkTable4_ParameterSelection runs CHET's encryption-parameter
// selection for the CKKS (HEAAN) target.
func BenchmarkTable4_ParameterSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4(benchModels(), bench.Table4Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].LogQ, "logQ")
	}
}

// BenchmarkTable5_LayoutSelectionSEAL prices all four data layouts under
// the RNS-CKKS (SEAL) cost model.
func BenchmarkTable5_LayoutSelectionSEAL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.LayoutTable(benchModels(), core.SchemeRNS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Seconds[1], "CHW-sec")
	}
}

// BenchmarkTable6_LayoutSelectionHEAAN prices all four data layouts under
// the CKKS (HEAAN) cost model.
func BenchmarkTable6_LayoutSelectionHEAAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.LayoutTable(benchModels(), core.SchemeCKKS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Seconds[0], "HW-sec")
	}
}

// BenchmarkFigure5_CHETvsManual reproduces the headline comparison:
// CHET-SEAL vs CHET-HEAAN vs the expert-manual HEAAN baseline.
func BenchmarkFigure5_CHETvsManual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure5(benchModels())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.ManualHEAAN/last.CHETHEAAN, "manual/chet")
	}
}

// BenchmarkFigure6_CostModelCorrelation measures real RNS-CKKS execution
// for every layout of the tiny demo network and reports the log-log
// correlation with the cost model's estimates.
func BenchmarkFigure6_CostModelCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.Figure6([]*nn.Model{nn.LeNetTiny()}, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.LogLogCorrelation(points), "corr")
	}
}

// BenchmarkFigure7_RotationKeysSpeedup reproduces the rotation-keys
// selection speedup over power-of-two default keys (geometric mean across
// networks and schemes).
func BenchmarkFigure7_RotationKeysSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure7(benchModels(), []core.Scheme{core.SchemeRNS, core.SchemeCKKS})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.GeomeanSpeedup(rows), "geomean-x")
	}
}

// BenchmarkEndToEnd_RealRNSInference measures one fully homomorphic
// inference of the demo network on the real lattice backend (keygen
// excluded), the repository's analogue of one Figure 5 measurement point.
func BenchmarkEndToEnd_RealRNSInference(b *testing.B) {
	model := nn.LeNetTiny()
	comp, err := core.Compile(model.Circuit, core.Options{
		Scheme:       core.SchemeRNS,
		SecurityBits: -1,
		MinLogN:      11,
		MaxLogN:      11,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := core.BuildBackend(comp, ring.NewTestPRNG(31))
	if err != nil {
		b.Fatal(err)
	}
	img := nn.SyntheticImage(model.InputShape, 13)
	sc := comp.Options.Scales
	plan := htc.PlanFor(model.Circuit, comp.Best.Policy)
	enc := htc.EncryptTensor(backend, plan, sc, img)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htc.Execute(backend, model.Circuit, enc, comp.Best.Policy, sc, htc.ExecOptions{})
	}
}

// rnsConvFixture builds a real RNS-CKKS backend and an encrypted CHW input
// for the parallel kernel benchmarks.
func rnsConvFixture(b *testing.B) (hisa.Backend, *htc.CipherTensor, htc.Scales) {
	b.Helper()
	logQ := []int{50}
	for i := 0; i < 7; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 11, LogQ: logQ, LogP: 50, LogScale: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend := hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(41)})
	sc := htc.DefaultScales()
	img := nn.SyntheticImage([]int{4, 8, 8}, 19)
	enc := htc.EncryptTensor(backend, htc.Plan{Layout: htc.LayoutCHW}, sc, img)
	return backend, enc, sc
}

// workerSweep is the Workers axis of the parallel kernel benchmarks.
var workerSweep = []int{1, 2, 4, 8}

// BenchmarkParallelConv2D sweeps the worker-pool size for the convolution
// kernel on the real lattice backend. On a single-core machine all points
// coincide; on a multi-core machine the marginal speedup per doubling is
// the quantity of interest.
func BenchmarkParallelConv2D(b *testing.B) {
	backend, enc, sc := rnsConvFixture(b)
	filters := nn.SyntheticImage([]int{8, 4, 3, 3}, 43)
	for _, workers := range workerSweep {
		b.Run(benchWorkersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				htc.Conv2D(backend, enc, filters, nil, 1, 0, sc,
					htc.ExecOptions{Workers: workers})
			}
		})
	}
}

// BenchmarkParallelDense sweeps the worker-pool size for the fully
// connected kernel (fan-out over input-ciphertext replication and packed
// neuron groups) on the real lattice backend.
func BenchmarkParallelDense(b *testing.B) {
	backend, enc, sc := rnsConvFixture(b)
	weights := nn.SyntheticImage([]int{16, 4 * 8 * 8}, 47)
	for _, workers := range workerSweep {
		b.Run(benchWorkersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				htc.Dense(backend, enc, weights, nil, sc,
					htc.ExecOptions{Workers: workers})
			}
		})
	}
}

func benchWorkersName(workers int) string {
	return fmt.Sprintf("workers=%d", workers)
}

// BenchmarkEndToEnd_ParallelRNSInference is the serial benchmark above with
// a worker pool per CPU: the serial-vs-parallel wall-clock ratio is the
// engine's end-to-end speedup.
func BenchmarkEndToEnd_ParallelRNSInference(b *testing.B) {
	model := nn.LeNetTiny()
	comp, err := core.Compile(model.Circuit, core.Options{
		Scheme:       core.SchemeRNS,
		SecurityBits: -1,
		MinLogN:      11,
		MaxLogN:      11,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := core.BuildBackend(comp, ring.NewTestPRNG(31))
	if err != nil {
		b.Fatal(err)
	}
	img := nn.SyntheticImage(model.InputShape, 13)
	sc := comp.Options.Scales
	plan := htc.PlanFor(model.Circuit, comp.Best.Policy)
	enc := htc.EncryptTensor(backend, plan, sc, img)
	opts := htc.ExecOptions{Workers: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htc.Execute(backend, model.Circuit, enc, comp.Best.Policy, sc, opts)
	}
}

// BenchmarkCompile measures the compiler itself (all four layout policies,
// both passes).
func BenchmarkCompile(b *testing.B) {
	model, err := Model("LeNet-5-small")
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range []core.Scheme{core.SchemeCKKS, core.SchemeRNS} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(model.Circuit, Options{Scheme: scheme}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHISABackends measures one homomorphic multiply-rescale on each
// executable backend, showing the relative cost of the functional oracle,
// the CKKS mock, and real lattice cryptography.
func BenchmarkHISABackends(b *testing.B) {
	backends := []hisa.Backend{
		hisa.NewRefBackend(2048),
		hisa.NewSimBackend(hisa.SimParams{LogN: 12, LogQ: 300}),
	}
	if params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 12, LogQ: []int{50, 40, 40, 40}, LogP: 50, LogScale: 40,
	}); err == nil {
		backends = append(backends, hisa.NewRNSBackend(hisa.RNSConfig{
			Params: params, PRNG: ring.NewTestPRNG(37), Keys: hisa.FullChainKeys(params, 1),
		}))
	}
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = 0.25
	}
	for _, backend := range backends {
		b.Run(backend.Name(), func(b *testing.B) {
			scale := float64(1 << 40)
			pt := backend.Encode(vals[:backend.Slots()], scale)
			ct := backend.Encrypt(pt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				backend.RotLeft(backend.MulPlain(ct, pt), 1)
			}
		})
	}
}
