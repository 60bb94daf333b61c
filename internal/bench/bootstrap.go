package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
)

// BootstrapResult records the deep-network bootstrapping experiment: a
// synthetic MLP too deep for its modulus chain compiles with compiler-placed
// bootstraps, runs end-to-end encrypted under the Refresher, and is compared
// against plaintext-tracking lockstep. The single-bootstrap microbenchmark
// isolates the refresh cost the placements amortize over the network.
type BootstrapResult struct {
	Model  string
	Layers int
	LogN   int

	// Chain/spec shape selected by the compiler.
	Window      int
	Floor       int
	Depth       int
	ChainPrimes int

	// Placements is the compiler's count; RuntimeBootstraps is the
	// Refresher's tally. The subsystem's contract is that they agree.
	Placements        int
	RuntimeBootstraps int
	PlacementParity   bool

	// BootstrapMS is the single-ciphertext refresh microbenchmark (best of
	// reps).
	BootstrapMS float64

	CompileMS    float64
	RunMS        float64
	ImagesPerSec float64
	// AmortizedMS is RunMS/Placements — an upper bound on the in-run cost
	// of one refresh, since it folds in all non-refresh layer work too.
	AmortizedMS float64

	// MaxErr is the max abs deviation of the encrypted output from the
	// plaintext-tracking lockstep; ErrBudget is the asserted ceiling.
	MaxErr    float64
	ErrBudget float64
	Pass      bool
}

// BootstrapBench compiles an nn.DeepMLP(layers) with bootstrap placement at
// the given ring size and budget window, runs it end-to-end encrypted, and
// measures refresh cost, output precision, and placement parity. The ring is
// deliberately small (and flagged insecure) so the experiment's real-lattice
// run stays tractable; the placement logic is ring-size independent.
func BootstrapBench(layers, logN, window int, errBudget float64) (BootstrapResult, error) {
	m := nn.DeepMLP(layers)
	opts := core.Options{
		Scheme:       core.SchemeRNS,
		SecurityBits: -1,
		MinLogN:      logN,
		MaxLogN:      logN,
		Policies:     []htc.LayoutPolicy{htc.PolicyCHW},
		Bootstrap:    &core.BootstrapOptions{Window: window},
	}

	start := time.Now()
	comp, err := core.Compile(m.Circuit, opts)
	if err != nil {
		return BootstrapResult{}, fmt.Errorf("bench: bootstrap compile: %w", err)
	}
	compileMS := float64(time.Since(start).Nanoseconds()) / 1e6
	if comp.BootPlan == nil || len(comp.BootPlan.Placements) == 0 {
		return BootstrapResult{}, fmt.Errorf("bench: NN-%d at window %d placed no bootstraps", layers, window)
	}

	img := nn.SyntheticImage(m.InputShape, 7)

	// Plaintext-tracking lockstep over the same circuit and layout.
	ref := hisa.NewRefBackend(1 << (comp.Best.LogN - 1))
	refOut := htc.Execute(ref, m.Circuit,
		htc.EncryptTensor(ref, comp.Plan(), comp.Options.Scales, img),
		comp.Best.Policy, comp.Options.Scales, htc.ExecOptions{})
	want := htc.DecryptTensor(ref, refOut, 1)[0]

	raw, err := core.BuildBackend(comp, ring.NewTestPRNG(0xB007))
	if err != nil {
		return BootstrapResult{}, err
	}
	backend, err := core.BootBackend(comp, raw)
	if err != nil {
		return BootstrapResult{}, err
	}
	rf, ok := backend.(*hisa.Refresher)
	if !ok {
		return BootstrapResult{}, fmt.Errorf("bench: BootBackend returned %T, want *hisa.Refresher", backend)
	}

	// Single-refresh microbenchmark: one ciphertext through the full
	// ModRaise / CoeffToSlot / EvalMod / SlotToCoeff pipeline.
	bb, ok := hisa.AsBootstrap(raw)
	if !ok {
		return BootstrapResult{}, fmt.Errorf("bench: backend %s lost bootstrap capability", raw.Name())
	}
	vals := make([]float64, raw.Slots())
	for i := range vals {
		vals[i] = 0.25
	}
	ct := raw.Encrypt(raw.Encode(vals, comp.Options.Scales.Pc))
	bootMS := math.MaxFloat64
	for i := 0; i < 3; i++ {
		s := time.Now()
		out := bb.Bootstrap(ct)
		e := float64(time.Since(s).Nanoseconds()) / 1e6
		raw.Free(out)
		if e < bootMS {
			bootMS = e
		}
	}
	raw.Free(ct)

	start = time.Now()
	out := htc.Execute(backend, m.Circuit,
		htc.EncryptTensor(backend, comp.Plan(), comp.Options.Scales, img),
		comp.Best.Policy, comp.Options.Scales, htc.ExecOptions{})
	runMS := float64(time.Since(start).Nanoseconds()) / 1e6
	got := htc.DecryptTensor(backend, out, 1)[0]

	maxErr := 0.0
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > maxErr {
			maxErr = d
		}
	}

	p := comp.BootPlan
	res := BootstrapResult{
		Model:  m.Name,
		Layers: layers,
		LogN:   comp.Best.LogN,

		Window:      p.Window,
		Floor:       p.Floor,
		Depth:       p.Depth,
		ChainPrimes: len(comp.Best.RNSChainBits),

		Placements:        len(p.Placements),
		RuntimeBootstraps: rf.Bootstraps(),
		PlacementParity:   rf.Bootstraps() == len(p.Placements),

		BootstrapMS: bootMS,

		CompileMS:    compileMS,
		RunMS:        runMS,
		ImagesPerSec: 1e3 / runMS,
		AmortizedMS:  runMS / float64(len(p.Placements)),

		MaxErr:    maxErr,
		ErrBudget: errBudget,
	}
	res.Pass = res.PlacementParity && maxErr <= errBudget
	return res, nil
}

// RenderBootstrap formats the bootstrapping experiment result.
func RenderBootstrap(r BootstrapResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bootstrapping: %s (%d layers) at logN=%d, window=%d floor=%d\n",
		r.Model, r.Layers, r.LogN, r.Window, r.Floor)
	fmt.Fprintf(&sb, "chain: %d primes (%d reserved for the bootstrap pipeline)\n",
		r.ChainPrimes, r.Depth)
	fmt.Fprintf(&sb, "placements: compiler %d, runtime %d (parity %v)\n",
		r.Placements, r.RuntimeBootstraps, r.PlacementParity)
	fmt.Fprintf(&sb, "refresh: %.1f ms/bootstrap isolated; the %.1f ms run amortizes its %d refreshes to <= %.1f ms each\n",
		r.BootstrapMS, r.RunMS, r.Placements, r.AmortizedMS)
	fmt.Fprintf(&sb, "compile %.0f ms; throughput %.3f images/sec\n", r.CompileMS, r.ImagesPerSec)
	fmt.Fprintf(&sb, "precision: max |encrypted - plaintext| = %.2e (budget %.0e) -> pass=%v\n",
		r.MaxErr, r.ErrBudget, r.Pass)
	return sb.String()
}
