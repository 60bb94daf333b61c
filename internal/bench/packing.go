package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"

	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// PackingRow records throughput for one packing configuration: real batching
// (one image per slot lane, the greedy rescale protocol) versus complex
// packing (two images per lane in the real and imaginary slot components,
// executed under the lazy scale plan).
type PackingRow struct {
	Config    string `json:"config"`
	Batch     int    `json:"batch"`
	Complex   bool   `json:"complex"`
	ScaleMode string `json:"scale_mode"`
	LogN      int    `json:"log_n"`
	// Rescales is the number of rescale instructions one inference executes.
	// On the RNS backend the lazy plan matches the greedy waterline (whole-
	// prime deferrals never pay for themselves — see scalepass.go), so the
	// complex row's extra rescales come from its extra multiplications, not
	// from the plan.
	Rescales int `json:"rescales"`
	// SecondsPerInfer is the best-of-reps wall time of one homomorphic
	// evaluation serving the whole batch.
	SecondsPerInfer float64 `json:"seconds_per_infer"`
	ImagesPerSec    float64 `json:"images_per_sec"`
}

// PackingErr is the per-backend decode-error check for the complex
// configuration: every image is recovered from its lane component and
// compared against the plaintext Ref oracle running the identical
// (unbatched, real) homomorphic program.
type PackingErr struct {
	Backend string  `json:"backend"`
	MaxErr  float64 `json:"max_lane_err"`
	Pass    bool    `json:"pass"`
}

// PackingResult is the machine-readable output of the packing experiment
// (BENCH_packing.json).
type PackingResult struct {
	Model string       `json:"model"`
	Rows  []PackingRow `json:"rows"`
	// Speedup is complex images/sec over real images/sec at equal ring size.
	Speedup float64 `json:"images_per_sec_ratio"`
	// ErrBudget is the per-lane decode-error ceiling every backend must meet.
	ErrBudget float64      `json:"lane_err_budget"`
	Errors    []PackingErr `json:"lane_errors"`
}

// PackingBench compares complex packing (B=2L images as real+imaginary lane
// components, lazy rescale plan) against real packing (B=L images, greedy
// protocol) at equal ring size on the real RNS-CKKS backend, then checks the
// complex configuration's per-lane decode error against the plaintext oracle
// on every executable backend (Ref, the CKKS mock, and RNS-CKKS).
func PackingBench(model *nn.Model, realBatch, minLogN, maxLogN, workers int, errBudget float64) (PackingResult, error) {
	// The rows' pass/fail gate is their throughput ratio, so GC share must
	// not differ between them; a higher collection target keeps the pacer
	// out of the timed loops. Restored on exit — only this experiment's
	// verdict rides on a ratio.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	res := PackingResult{Model: model.Name, ErrBudget: errBudget}
	base := core.Options{
		Scheme:       core.SchemeRNS,
		SecurityBits: -1,
		MinLogN:      minLogN,
		MaxLogN:      maxLogN,
		Batch:        realBatch,
	}
	cplx := base
	cplx.Batch = 2 * realBatch
	cplx.Complex = true
	cplx.ScaleMode = core.ScaleLazy

	compReal, err := core.Compile(model.Circuit, base)
	if err != nil {
		return res, fmt.Errorf("bench: compiling %s real batch %d: %w", model.Name, base.Batch, err)
	}
	compCplx, err := core.Compile(model.Circuit, cplx)
	if err != nil {
		return res, fmt.Errorf("bench: compiling %s complex batch %d: %w", model.Name, cplx.Batch, err)
	}
	if compReal.Best.LogN != compCplx.Best.LogN {
		return res, fmt.Errorf("bench: ring sizes diverge (real N=2^%d, complex N=2^%d); the comparison requires equal rings",
			compReal.Best.LogN, compCplx.Best.LogN)
	}

	imgs := make([]*tensor.Tensor, cplx.Batch)
	for i := range imgs {
		imgs[i] = nn.SyntheticImage(model.InputShape, uint64(80+i))
	}

	rowReal, _, err := timePacked("real-greedy", compReal, imgs[:base.Batch], workers)
	if err != nil {
		return res, err
	}
	rowCplx, cplxOuts, err := timePacked("complex-lazy", compCplx, imgs, workers)
	if err != nil {
		return res, err
	}
	res.Rows = []PackingRow{rowReal, rowCplx}
	res.Speedup = rowCplx.ImagesPerSec / rowReal.ImagesPerSec

	// Per-lane decode error, complex configuration vs the plaintext oracle
	// running the identical unbatched real program.
	refs := oracleOutputs(model, compCplx, imgs)
	res.Errors = append(res.Errors, PackingErr{Backend: "rns", MaxErr: maxLaneErr(refs, cplxOuts)})

	refOuts, err := decodePacked(compCplx, hisa.NewRefBackend(1<<uint(compCplx.Best.LogN-1)), imgs, workers)
	if err != nil {
		return res, err
	}
	res.Errors = append(res.Errors, PackingErr{Backend: "ref", MaxErr: maxLaneErr(refs, refOuts)})

	cplxSim := cplx
	cplxSim.Scheme = core.SchemeCKKS
	compSim, err := core.Compile(model.Circuit, cplxSim)
	if err != nil {
		return res, fmt.Errorf("bench: compiling %s complex on CKKS: %w", model.Name, err)
	}
	simB, err := core.BuildBackend(compSim, ring.NewTestPRNG(83))
	if err != nil {
		return res, err
	}
	simOuts, err := decodePacked(compSim, simB, imgs, workers)
	if err != nil {
		return res, err
	}
	res.Errors = append(res.Errors, PackingErr{Backend: "sim", MaxErr: maxLaneErr(refs, simOuts)})

	for i := range res.Errors {
		res.Errors[i].Pass = res.Errors[i].MaxErr <= errBudget
	}
	return res, nil
}

// timePacked builds the compiled configuration's session backend, times one
// batched homomorphic evaluation (best of 3), and returns the decoded lane
// outputs of the final run.
func timePacked(config string, comp *core.Compiled, imgs []*tensor.Tensor, workers int) (PackingRow, []*tensor.Tensor, error) {
	b, err := core.BuildBackend(comp, ring.NewTestPRNG(82))
	if err != nil {
		return PackingRow{}, nil, err
	}
	meter := hisa.NewMeter(b, nil)
	sc := comp.Options.Scales
	enc := htc.EncryptTensorBatch(meter, imgs, comp.Plan(), sc)
	opts := htc.ExecOptions{Workers: workers}
	if comp.ScalePlan != nil {
		opts.Scale = htc.PlanPolicy{Plan: comp.ScalePlan}
	}

	var out *htc.CipherTensor
	before := meter.Counts()
	out = htc.ExecuteOpts(meter, comp.Circuit, enc, comp.Best.Policy, sc, opts)
	rescales := meter.Counts()[hisa.OpRescale] - before[hisa.OpRescale]

	// Level the field between rows: the second configuration otherwise starts
	// with the first one's garbage and pays its collection mid-timing.
	runtime.GC()
	ns := timeBatchN(func() {
		out = htc.ExecuteOpts(meter, comp.Circuit, enc, comp.Best.Policy, sc, opts)
	}, 5)
	sec := ns / 1e9

	outs := make([]*tensor.Tensor, len(imgs))
	for i := range imgs {
		outs[i] = htc.DecryptTensorLane(meter, out, i)
	}
	return PackingRow{
		Config:          config,
		Batch:           len(imgs),
		Complex:         comp.Options.Complex,
		ScaleMode:       comp.Options.ScaleMode.String(),
		LogN:            comp.Best.LogN,
		Rescales:        rescales,
		SecondsPerInfer: sec,
		ImagesPerSec:    float64(len(imgs)) / sec,
	}, outs, nil
}

// decodePacked runs the complex-packed batch on b and decodes every lane.
func decodePacked(comp *core.Compiled, b hisa.Backend, imgs []*tensor.Tensor, workers int) ([]*tensor.Tensor, error) {
	sc := comp.Options.Scales
	enc := htc.EncryptTensorBatch(b, imgs, comp.Plan(), sc)
	opts := htc.ExecOptions{Workers: workers}
	if comp.ScalePlan != nil {
		opts.Scale = htc.PlanPolicy{Plan: comp.ScalePlan}
	}
	out := htc.ExecuteOpts(b, comp.Circuit, enc, comp.Best.Policy, sc, opts)
	outs := make([]*tensor.Tensor, len(imgs))
	for i := range imgs {
		outs[i] = htc.DecryptTensorLane(b, out, i)
	}
	return outs, nil
}

// oracleOutputs runs every image through the plaintext Ref oracle,
// unbatched and real-packed under the greedy protocol — the precision
// profiler's reference execution.
func oracleOutputs(model *nn.Model, comp *core.Compiled, imgs []*tensor.Tensor) []*tensor.Tensor {
	ref := hisa.NewRefBackend(1 << uint(comp.Best.LogN-1))
	plan := htc.PlanFor(model.Circuit, comp.Best.Policy)
	sc := comp.Options.Scales
	outs := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		enc := htc.EncryptTensor(ref, img, plan, sc)
		out := htc.Execute(ref, model.Circuit, enc, comp.Best.Policy, sc)
		outs[i] = htc.DecryptTensor(ref, out)
	}
	return outs
}

// maxLaneErr is the element-wise max abs deviation across all lanes.
func maxLaneErr(want, got []*tensor.Tensor) float64 {
	worst := 0.0
	for i := range want {
		for j := range want[i].Data {
			if e := math.Abs(want[i].Data[j] - got[i].Data[j]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// RenderPacking formats the real-vs-complex comparison.
func RenderPacking(r PackingResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "complex packing vs real batching: %s (real RNS-CKKS, equal ring size)\n", r.Model)
	fmt.Fprintf(&sb, "%-14s %5s %6s %9s %9s %12s %12s\n",
		"config", "batch", "N", "scales", "rescales", "s/infer", "images/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %5d %6d %9s %9d %12.3f %12.2f\n",
			row.Config, row.Batch, 1<<uint(row.LogN), row.ScaleMode, row.Rescales,
			row.SecondsPerInfer, row.ImagesPerSec)
	}
	fmt.Fprintf(&sb, "throughput ratio (complex/real): %.2fx\n", r.Speedup)
	fmt.Fprintf(&sb, "per-lane decode error vs plaintext oracle (budget %.0e):\n", r.ErrBudget)
	for _, e := range r.Errors {
		verdict := "ok"
		if !e.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "  %-4s max|err| %10.2e  %s\n", e.Backend, e.MaxErr, verdict)
	}
	return sb.String()
}
