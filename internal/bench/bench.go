// Package bench regenerates the tables and figures of the paper's
// evaluation (Section 6): network statistics (Table 3), the encryption
// parameters CHET selects (Table 4), per-layout latencies for both schemes
// (Tables 5 and 6), the CHET-vs-manual comparison (Figure 5), the
// cost-model-vs-observed correlation (Figure 6), the rotation-keys speedup
// (Figure 7), and the HISA operation microbenchmarks behind Table 1 — plus
// the deep-MLP bootstrap placement check (bootstrap.go). cmd/chet-bench and
// the repository's testing.B benchmarks drive these functions; everything
// beyond the paper is measured by the benchmark/ module instead.
package bench

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"

	"chet/internal/ckks"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// EvalModels returns the paper's five evaluation networks.
func EvalModels() []*nn.Model { return nn.All() }

// SmallModels returns networks small enough to execute with real lattice
// cryptography in a benchmark run.
func SmallModels() []*nn.Model {
	small, _ := nn.ByName("LeNet-5-small")
	return []*nn.Model{nn.LeNetTiny(), small}
}

// ---------------------------------------------------------------- Table 3

// Table3Row mirrors a row of Table 3.
type Table3Row struct {
	Name             string
	Conv, FC, Act    int
	Flops            int64
	OutputFidelity   float64 // max abs deviation encrypted vs plaintext
	FidelityMeasured bool
}

// Table3 reports the network inventory. When withFidelity is set, each
// network is additionally executed homomorphically on the CKKS noise model
// and the output deviation from plaintext inference is reported (our
// substitute for the paper's accuracy column; see DESIGN.md).
func Table3(models []*nn.Model, withFidelity bool) []Table3Row {
	rows := make([]Table3Row, 0, len(models))
	for _, m := range models {
		lc := m.Circuit.CountLayers()
		row := Table3Row{
			Name:  m.Name,
			Conv:  lc.Conv,
			FC:    lc.Dense,
			Act:   lc.Act,
			Flops: m.Circuit.Flops(),
		}
		if withFidelity {
			row.OutputFidelity = fidelity(m)
			row.FidelityMeasured = true
		}
		rows = append(rows, row)
	}
	return rows
}

// fidelity runs one encrypted inference on the compiled CKKS mock backend
// and returns the max abs deviation from plaintext inference.
func fidelity(m *nn.Model) float64 {
	comp, err := core.Compile(m.Circuit, core.Options{Scheme: core.SchemeCKKS})
	if err != nil {
		return math.NaN()
	}
	b, err := core.BuildBackend(comp, nil)
	if err != nil {
		return math.NaN()
	}
	img := nn.SyntheticImage(m.InputShape, 11)
	want := m.Circuit.Evaluate(img)
	sc := comp.Options.Scales
	plan := htc.PlanFor(m.Circuit, comp.Best.Policy)
	enc := htc.EncryptTensor(b, plan, sc, img)
	got := htc.DecryptTensor(b, htc.Execute(b, m.Circuit, enc, comp.Best.Policy, sc, htc.ExecOptions{}), 1)[0]
	maxErr := 0.0
	for i := range want.Data {
		if e := math.Abs(got.Data[i] - want.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// RenderTable3 formats the rows like the paper's table.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %5s %4s %4s %12s %12s\n", "Network", "Conv", "FC", "Act", "# FP ops", "fidelity")
	for _, r := range rows {
		fid := "-"
		if r.FidelityMeasured {
			fid = fmt.Sprintf("%.2e", r.OutputFidelity)
		}
		fmt.Fprintf(&sb, "%-18s %5d %4d %4d %12d %12s\n", r.Name, r.Conv, r.FC, r.Act, r.Flops, fid)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Table 4

// Table4Row mirrors Table 4: the parameters CHET-HEAAN selects.
type Table4Row struct {
	Name      string
	LogN      int
	LogQ      float64
	ScaleBits [4]int // log2 of Pc, Pw, Pu, Pm
}

// Table4Options tunes the (expensive) profile-guided scale search.
type Table4Options struct {
	UseScaleSearch bool
	SearchStep     int
	Tolerance      float64
}

// Table4 reproduces the parameter-selection table for the CKKS (HEAAN)
// target. With UseScaleSearch, the fixed-point factors come from the
// profile-guided search; otherwise the compiler defaults are reported.
func Table4(models []*nn.Model, opts Table4Options) ([]Table4Row, error) {
	rows := make([]Table4Row, 0, len(models))
	for _, m := range models {
		copts := core.Options{Scheme: core.SchemeCKKS}
		if opts.UseScaleSearch {
			search := core.ScaleSearch{Step: opts.SearchStep, Tolerance: opts.Tolerance}
			inputs := []*tensor.Tensor{nn.SyntheticImage(m.InputShape, 21)}
			sc, err := core.SelectScales(m.Circuit, inputs, search, core.Options{
				Scheme:   core.SchemeCKKS,
				Policies: []htc.LayoutPolicy{htc.PolicyCHW},
			})
			if err != nil {
				return nil, fmt.Errorf("scale search for %s: %w", m.Name, err)
			}
			copts.Scales = sc
		}
		comp, err := core.Compile(m.Circuit, copts)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", m.Name, err)
		}
		sc := comp.Options.Scales
		rows = append(rows, Table4Row{
			Name: m.Name,
			LogN: comp.Best.LogN,
			LogQ: comp.Best.LogQ,
			ScaleBits: [4]int{
				int(math.Round(math.Log2(sc.Pc))),
				int(math.Round(math.Log2(sc.Pw))),
				int(math.Round(math.Log2(sc.Pu))),
				int(math.Round(math.Log2(sc.Pm))),
			},
		})
	}
	return rows, nil
}

// RenderTable4 formats the parameter table.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %8s %8s %22s\n", "Network", "N", "log(Q)", "log(Pc,Pw,Pu,Pm)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %8d %8.0f %8d %4d %4d %4d\n",
			r.Name, 1<<uint(r.LogN), r.LogQ,
			r.ScaleBits[0], r.ScaleBits[1], r.ScaleBits[2], r.ScaleBits[3])
	}
	return sb.String()
}

// ----------------------------------------------------------- Tables 5 & 6

// LayoutRow gives the estimated latency of each layout policy for one
// network (seconds), with the compiler's choice marked.
type LayoutRow struct {
	Name    string
	Seconds [4]float64 // indexed by htc.AllPolicies order
	Best    htc.LayoutPolicy
}

// LayoutTable reproduces Table 5 (scheme = RNS / SEAL) or Table 6
// (scheme = CKKS / HEAAN): the cost-model latency of every layout policy.
func LayoutTable(models []*nn.Model, scheme core.Scheme) ([]LayoutRow, error) {
	rows := make([]LayoutRow, 0, len(models))
	for _, m := range models {
		comp, err := core.Compile(m.Circuit, core.Options{Scheme: scheme})
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", m.Name, err)
		}
		var row LayoutRow
		row.Name = m.Name
		row.Best = comp.Best.Policy
		for _, res := range comp.Trace {
			for i, p := range htc.AllPolicies {
				if res.Policy == p {
					row.Seconds[i] = res.EstimatedCost / 1e6
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderLayoutTable formats a layout table. A dash marks a policy that did
// not compile (no secure ring degree fits its modulus consumption).
func RenderLayoutTable(rows []LayoutRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %12s %12s %12s %12s   best\n",
		"Network", "HW", "CHW", "HW-conv", "CHW-fc")
	cell := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %12s %12s %12s %12s   %v\n",
			r.Name, cell(r.Seconds[0]), cell(r.Seconds[1]), cell(r.Seconds[2]), cell(r.Seconds[3]), r.Best)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Row compares CHET-compiled circuits against the manual baseline
// (seconds, cost-model latency).
type Fig5Row struct {
	Name        string
	CHETSEAL    float64
	CHETHEAAN   float64
	ManualHEAAN float64
}

// Figure5 reproduces the headline comparison. Manual-HEAAN models what the
// paper's experts started from: fixed HW layout, power-of-two rotation keys
// only, conservative 2^40 scales everywhere.
func Figure5(models []*nn.Model) ([]Fig5Row, error) {
	rows := make([]Fig5Row, 0, len(models))
	manualScales := htc.Scales{
		Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40),
	}
	for _, m := range models {
		seal, err := core.Compile(m.Circuit, core.Options{Scheme: core.SchemeRNS})
		if err != nil {
			return nil, err
		}
		heaan, err := core.Compile(m.Circuit, core.Options{Scheme: core.SchemeCKKS})
		if err != nil {
			return nil, err
		}
		manual, err := core.Compile(m.Circuit, core.Options{
			Scheme:                  core.SchemeCKKS,
			Policies:                []htc.LayoutPolicy{htc.PolicyHW},
			PowerOfTwoRotationsOnly: true,
			Scales:                  manualScales,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{
			Name:        m.Name,
			CHETSEAL:    seal.Best.EstimatedCost / 1e6,
			CHETHEAAN:   heaan.Best.EstimatedCost / 1e6,
			ManualHEAAN: manual.Best.EstimatedCost / 1e6,
		})
	}
	return rows, nil
}

// RenderFigure5 formats the comparison.
func RenderFigure5(rows []Fig5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %14s %14s %14s\n", "Network", "CHET-SEAL(s)", "CHET-HEAAN(s)", "Manual-HEAAN(s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %14.1f %14.1f %14.1f\n", r.Name, r.CHETSEAL, r.CHETHEAAN, r.ManualHEAAN)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Point is one (estimated cost, observed latency) pair.
type Fig6Point struct {
	Name     string
	Policy   htc.LayoutPolicy
	EstUS    float64 // cost-model estimate (us)
	Observed float64 // measured wall-clock on the real RNS backend (s)
}

// Figure6 measures real RNS-CKKS execution latency for every layout policy
// of the given (small) networks and pairs it with the cost-model estimate.
// Small insecure rings keep the measurement tractable; the correlation, not
// the absolute latency, is the result.
func Figure6(models []*nn.Model, logN int) ([]Fig6Point, error) {
	var points []Fig6Point
	for _, m := range models {
		for _, policy := range htc.AllPolicies {
			comp, err := core.Compile(m.Circuit, core.Options{
				Scheme:       core.SchemeRNS,
				SecurityBits: -1,
				MinLogN:      logN,
				MaxLogN:      logN,
				Policies:     []htc.LayoutPolicy{policy},
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", m.Name, policy, err)
			}
			b, err := core.BuildBackend(comp, ring.NewTestPRNG(17))
			if err != nil {
				return nil, err
			}
			img := nn.SyntheticImage(m.InputShape, 23)
			sc := comp.Options.Scales
			plan := htc.PlanFor(m.Circuit, policy)
			enc := htc.EncryptTensor(b, plan, sc, img)
			start := time.Now()
			htc.Execute(b, m.Circuit, enc, policy, sc, htc.ExecOptions{})
			elapsed := time.Since(start).Seconds()
			points = append(points, Fig6Point{
				Name:     m.Name,
				Policy:   policy,
				EstUS:    comp.Best.EstimatedCost,
				Observed: elapsed,
			})
		}
	}
	return points, nil
}

// LogLogCorrelation returns the Pearson correlation of log(estimate) vs
// log(observed), the quantity Figure 6 visualizes.
func LogLogCorrelation(points []Fig6Point) float64 {
	n := float64(len(points))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range points {
		x := math.Log(p.EstUS)
		y := math.Log(p.Observed)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	num := n*sxy - sx*sy
	den := math.Sqrt((n*sxx - sx*sx) * (n*syy - sy*sy))
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// RenderFigure6 formats the scatter data and correlation.
func RenderFigure6(points []Fig6Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-20s %14s %14s\n", "Network", "Layout", "est cost", "observed (s)")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-14s %-20v %14.0f %14.3f\n", p.Name, p.Policy, p.EstUS, p.Observed)
	}
	fmt.Fprintf(&sb, "log-log Pearson correlation: %.3f\n", LogLogCorrelation(points))
	return sb.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row is the speedup of CHET's rotation-keys selection over the
// power-of-two default for one network and scheme.
type Fig7Row struct {
	Name    string
	Scheme  core.Scheme
	Speedup float64
	// Rotation operation counts behind the speedup.
	RotOpsSelected, RotOpsPow2 int
}

// Figure7 compares compiled cost with CHET-selected rotation keys against
// the power-of-two default keys.
func Figure7(models []*nn.Model, schemes []core.Scheme) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, scheme := range schemes {
		for _, m := range models {
			opt, err := core.Compile(m.Circuit, core.Options{Scheme: scheme})
			if err != nil {
				return nil, err
			}
			base, err := core.Compile(m.Circuit, core.Options{
				Scheme:                  scheme,
				PowerOfTwoRotationsOnly: true,
				Policies:                []htc.LayoutPolicy{opt.Best.Policy},
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig7Row{
				Name:           m.Name,
				Scheme:         scheme,
				Speedup:        base.Best.EstimatedCost / opt.Best.EstimatedCost,
				RotOpsSelected: opt.Best.RotationOps,
				RotOpsPow2:     base.Best.RotationOps,
			})
		}
	}
	return rows, nil
}

// GeomeanSpeedup aggregates Figure 7 the way the paper reports it.
func GeomeanSpeedup(rows []Fig7Row) float64 {
	if len(rows) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, r := range rows {
		sum += math.Log(r.Speedup)
	}
	return math.Exp(sum / float64(len(rows)))
}

// RenderFigure7 formats the speedups.
func RenderFigure7(rows []Fig7Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-18s %9s %12s %12s\n", "Network", "Scheme", "speedup", "rot(CHET)", "rot(pow2)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %-18v %8.2fx %12d %12d\n",
			r.Name, r.Scheme, r.Speedup, r.RotOpsSelected, r.RotOpsPow2)
	}
	fmt.Fprintf(&sb, "geometric-mean speedup: %.2fx\n", GeomeanSpeedup(rows))
	return sb.String()
}

// ---------------------------------------------------------------- Table 1

// Table1Row reports measured HISA primitive latencies on the real RNS-CKKS
// backend for one (N, r) configuration.
type Table1Row struct {
	LogN, Primes                   int
	AddUS, ScalarMulUS, PlainMulUS float64
	CtMulUS, RotateUS, RescaleUS   float64
}

// Table1 microbenchmarks the RNS-CKKS backend, verifying the asymptotic
// behaviour of Table 1's RNS column (addition and plaintext multiplication
// scale with N*r; ciphertext multiplication and rotation with N*logN*r^2).
func Table1(configs [][2]int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, cfg := range configs {
		logN, primes := cfg[0], cfg[1]
		row, err := measureOps(logN, primes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func measureOps(logN, primes int) (Table1Row, error) {
	logQ := make([]int, primes)
	for i := range logQ {
		logQ[i] = 40
	}
	logQ[0] = 50
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: logN, LogQ: logQ, LogP: 50, LogScale: 40,
	})
	if err != nil {
		return Table1Row{}, err
	}
	b := hisa.NewRNSBackend(hisa.RNSConfig{
		Params: params,
		PRNG:   ring.NewTestPRNG(29),
		Keys:   hisa.FullChainKeys(params, 3),
	})
	slots := b.Slots()
	vals := make([]float64, slots)
	for i := range vals {
		vals[i] = 0.5
	}
	scale := math.Exp2(40)
	pt := b.Encode(vals, scale)
	ct := b.Encrypt(pt)
	ct2 := b.Encrypt(pt)

	row := Table1Row{LogN: logN, Primes: primes}
	row.AddUS = timeOp(func() { b.Add(ct, ct2) })
	row.ScalarMulUS = timeOp(func() { b.MulScalar(ct, 1.5, scale) })
	row.PlainMulUS = timeOp(func() { b.MulPlain(ct, pt) })
	row.CtMulUS = timeOp(func() { b.Mul(ct, ct2) })
	row.RotateUS = timeOp(func() { b.RotLeft(ct, 3) })

	prod := b.Mul(ct, ct2)
	d := b.MaxRescale(prod, new(big.Int).Lsh(big.NewInt(1), 41))
	row.RescaleUS = timeOp(func() { b.Rescale(prod, d) })
	return row, nil
}

// timeOp measures the median-ish latency of f in microseconds.
func timeOp(f func()) float64 {
	f() // warm up
	const reps = 3
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if e := float64(time.Since(start).Microseconds()); e < best {
			best = e
		}
	}
	return best
}

// RenderTable1 formats the microbenchmark table.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %3s %10s %10s %10s %10s %10s %10s\n",
		"N", "r", "add(us)", "sMul(us)", "pMul(us)", "ctMul(us)", "rot(us)", "rescale(us)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d %3d %10.0f %10.0f %10.0f %10.0f %10.0f %10.0f\n",
			1<<uint(r.LogN), r.Primes, r.AddUS, r.ScalarMulUS, r.PlainMulUS,
			r.CtMulUS, r.RotateUS, r.RescaleUS)
	}
	return sb.String()
}
