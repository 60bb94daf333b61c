// chet-compile runs the CHET compiler on one of the evaluation networks and
// reports every decision it makes: the chosen data layout, the encryption
// parameters (ring degree, modulus, RNS chain), the rotation-key set, and
// the per-policy cost estimates.
//
// Usage:
//
//	chet-compile -model LeNet-5-small -scheme seal
//	chet-compile -model SqueezeNet-CIFAR -scheme heaan -security 128
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"chet"
	"chet/internal/circuit"
	"chet/internal/htc"
)

// compileConfig holds everything main parses from flags.
type compileConfig struct {
	model     string
	scheme    string
	security  int
	scales    string
	showKeys  bool
	batch     int
	complex   bool
	explain   bool
	bootstrap int
}

// compileAndDescribe runs the compiler and writes the decision report to w.
func compileAndDescribe(w io.Writer, cfg compileConfig) error {
	m, err := chet.Model(cfg.model)
	if err != nil {
		return err
	}
	opts := chet.Options{
		SecurityBits: cfg.security,
		Batch:        cfg.batch,
		Complex:      cfg.complex,
	}
	switch strings.ToLower(cfg.scheme) {
	case "seal", "rns", "rns-ckks":
		opts.Scheme = chet.SchemeRNS
	case "heaan", "ckks":
		opts.Scheme = chet.SchemeCKKS
	default:
		return fmt.Errorf("unknown scheme %q", cfg.scheme)
	}
	if cfg.scales != "" {
		sc, err := parseScales(cfg.scales)
		if err != nil {
			return err
		}
		opts.Scales = sc
	}
	if cfg.bootstrap > 0 {
		opts.Bootstrap = &chet.BootstrapOptions{Window: cfg.bootstrap}
	}

	compiled, err := chet.Compile(m.Circuit, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, chet.Describe(compiled))
	if cfg.showKeys {
		fmt.Fprintf(w, "rotation keys (%d): %v\n", len(compiled.Best.Rotations), compiled.Best.Rotations)
	}
	if cfg.explain {
		explainSpecial(w, compiled)
		explainNodes(w, compiled)
		explainProgram(w, compiled)
		if compiled.BootPlan != nil {
			explainBootstrap(w, compiled)
		}
	}
	return nil
}

// explainSpecial renders the special-prime choice: every count α admitted
// at the selected ring degree, with the digits it implies, the size of its
// special primes, its own log2(QP) and the cost estimate of the whole
// circuit at that α (the figure α minimizes, EstimatedCost at the chosen one).
func explainSpecial(w io.Writer, compiled *chet.Compiled) {
	b := compiled.Best
	if len(b.SpecialTrace) == 0 {
		return
	}
	fmt.Fprintf(w, "special primes: α = %d of %d admissible (chain %d primes, %d-bit special primes)\n",
		b.SpecialPrimes, len(b.SpecialTrace), len(b.RNSChainBits), b.SpecialBits)
	fmt.Fprintf(w, "  %5s  %6s  %4s  %8s  %14s\n", "alpha", "digits", "bits", "log2(QP)", "estimate ms")
	for _, c := range b.SpecialTrace {
		marker := " "
		if c.Alpha == b.SpecialPrimes {
			marker = "*"
		}
		digits := (len(b.RNSChainBits) + c.Alpha - 1) / c.Alpha
		fmt.Fprintf(w, "  %s%4d  %6d  %4d  %8.0f  %14.1f\n",
			marker, c.Alpha, digits, c.Bits, b.LogQ+float64(c.Alpha*c.Bits), c.Cost/1000)
	}
}

// explainBootstrap renders the bootstrap-placement pass's plan: the spec the
// chain was shaped around, then one row per refresh site with the ciphertext
// level the placement model saw before and after the refresh and the
// estimated cost of that bootstrap.
func explainBootstrap(w io.Writer, compiled *chet.Compiled) {
	p := compiled.BootPlan
	fmt.Fprintf(w, "bootstrap-placement pass: %d placements, window %d, floor %d\n",
		len(p.Placements), p.Window, p.Floor)
	fmt.Fprintf(w, "  pipeline: depth %d (sine degree %d, K=%d, %d double-angles), fresh level %d\n",
		p.Depth, p.Spec.Degree, p.Spec.K, p.Spec.DoubleAngles, p.FreshLevel)
	fmt.Fprintf(w, "  %4s  %-28s %-10s  %6s  %5s  %10s\n",
		"site", "node", "op", "before", "after", "est ms")
	for _, pl := range p.Placements {
		name := pl.Name
		if name == "" {
			name = fmt.Sprintf("node %d", pl.Node)
		}
		fmt.Fprintf(w, "  %4d  %-28s %-10s  %6d  %5d  %10.1f\n",
			pl.Index, name, pl.Op, pl.LevelBefore, pl.LevelAfter, pl.Cost/1000)
	}
	fmt.Fprintf(w, "  total refresh estimate: %.1f ms\n", p.EstCost/1000)
}

// explainNodes renders the recording run split by circuit node: which kernel
// the rotations, plaintext multiplications, rescales and relinearizations
// come from, which of them are mask products, which nodes hold the program's
// constants and their plaintexts (each billed to its first reader), what
// each node did with the constant factors the rewrite carries (absorbed,
// passed on, or set), and each node's share of the estimated cost — the
// per-layer table of a runtime trace, available at compile time.
func explainNodes(w io.Writer, compiled *chet.Compiled) {
	total := 0.0
	for _, n := range compiled.Nodes {
		total += n.Cost
	}
	fmt.Fprintf(w, "per-node analysis (layout %v, estimated %.1f ms):\n", compiled.Best.Policy, total/1000)
	fmt.Fprintf(w, "  %-20s %-16s %6s  %8s  %5s  %7s  %5s  %6s  %8s  %-22s  %9s  %6s\n",
		"node", "kernel", "rot", "mulplain", "masks", "rescale", "relin", "consts", "MiB", "factor", "est ms", "share")
	for _, n := range compiled.Nodes {
		fmt.Fprintf(w, "  %-20s %-16v %6d  %8d  %5d  %7d  %5d  %6d  %8.2f  %-22s  %9.1f  %5.1f%%\n",
			n.Name, n.Kind, n.Rotations, n.MulPlain, n.Masks, n.Rescale, n.Relin, n.Consts, float64(n.ConstBytes)/(1<<20),
			factorNote(n.Factor), n.Cost/1000, 100*n.Cost/total)
	}
	if f := compiled.Program.OutFactor; f != 1 {
		fmt.Fprintf(w, "  output factor %g, applied at decryption\n", f)
	}
}

// explainProgram renders the recorded program every execution replays: its
// instructions by kind, the most registers live at once in a serial run,
// and the constant table — its entries, the bytes their nonzero runs take,
// and what their plaintexts take once encoded at their levels, (ℓ+1)·N·8
// bytes each (leveled targets only; the mock encodes per use), complex ones
// that vary across the slots included (htc.Program.EncodedLevels).
func explainProgram(w io.Writer, compiled *chet.Compiled) {
	p := compiled.Code
	var kinds [htc.NumOps]int
	for _, in := range p.Instrs {
		kinds[in.Op]++
	}
	var runs, bill int64
	for _, k := range p.Consts {
		runs += int64(16 * (len(k.Re) + len(k.Im)))
	}
	for _, level := range p.EncodedLevels(1 << (compiled.Best.LogN - 1)) {
		if level >= 0 {
			bill += int64(level+1) << compiled.Best.LogN * 8
		}
	}
	fmt.Fprintf(w, "program: %d instructions, peak %d live registers, %d constants (%.1f KiB of runs, %.1f MiB of plaintexts)\n",
		len(p.Instrs), p.PeakLive(), len(p.Consts), float64(runs)/(1<<10), float64(bill)/(1<<20))
	fmt.Fprint(w, " ")
	for op, n := range kinds {
		if n > 0 {
			fmt.Fprintf(w, " %v %d", htc.Op(op), n)
		}
	}
	fmt.Fprintln(w)
}

// factorNote says what a node did with the factor on its input: absorbed it
// into its constants, passed it on, or left a new one on its output.
func factorNote(f circuit.Factor) string {
	switch {
	case f.In == 1 && f.Out == 1:
		return "-"
	case f.Out == 1:
		return fmt.Sprintf("absorbs %.4g", f.In)
	case f.Out == f.In:
		return fmt.Sprintf("passes %.4g", f.In)
	default:
		return fmt.Sprintf("%.4g -> %.4g", f.In, f.Out)
	}
}

func main() {
	log.SetFlags(0)
	cfg := compileConfig{}
	flag.StringVar(&cfg.model, "model", "LeNet-5-small",
		"network to compile (LeNet-5-small, LeNet-5-medium, LeNet-5-large, Industrial, SqueezeNet-CIFAR, LeNet-tiny, NN-20)")
	flag.StringVar(&cfg.scheme, "scheme", "seal", "target FHE scheme: seal (RNS-CKKS) or heaan (CKKS)")
	flag.IntVar(&cfg.security, "security", 128, "security level in bits (128/192/256; -1 disables the check)")
	flag.StringVar(&cfg.scales, "scales", "", "fixed-point scale exponents as Pc,Pw,Pu,Pm (e.g. 40,35,35,30); empty = defaults")
	flag.BoolVar(&cfg.showKeys, "keys", false, "print the full rotation-key list")
	flag.IntVar(&cfg.batch, "batch", 1, "images packed per evaluation (batch-axis slot lanes)")
	flag.BoolVar(&cfg.complex, "complex", false,
		"complex packing: two images per lane (real+imaginary slot components)")
	flag.BoolVar(&cfg.explain, "explain", false,
		"print the special-prime candidates, each node's instruction counts and share of the estimated cost, the recorded program and its constants, and (with -bootstrap) the bootstrap placements")
	flag.IntVar(&cfg.bootstrap, "bootstrap", 0,
		"enable compiler bootstrap placement with this budget window in levels (0 disables; RNS only)")
	flag.Parse()

	if err := compileAndDescribe(os.Stdout, cfg); err != nil {
		log.Fatal(err)
	}
}

func parseScales(s string) (chet.Scales, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return chet.Scales{}, fmt.Errorf("want 4 comma-separated exponents, got %q", s)
	}
	exps := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return chet.Scales{}, fmt.Errorf("bad exponent %q: %w", p, err)
		}
		if v < 1 || v > 62 {
			return chet.Scales{}, fmt.Errorf("exponent %d outside [1, 62]", v)
		}
		exps[i] = float64(int64(1) << uint(v))
	}
	return chet.Scales{Pc: exps[0], Pw: exps[1], Pu: exps[2], Pm: exps[3]}, nil
}
