package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"chet"
)

// TestCompileAndDescribeSmoke compiles the demo network for both schemes
// and checks the decision report is rendered.
func TestCompileAndDescribeSmoke(t *testing.T) {
	for _, scheme := range []string{"seal", "heaan"} {
		var sb strings.Builder
		err := compileAndDescribe(&sb, compileConfig{
			model:    "LeNet-tiny",
			scheme:   scheme,
			security: -1,
			showKeys: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out := sb.String()
		for _, want := range []string{"best layout policy", "rotation keys"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: output missing %q:\n%s", scheme, want, out)
			}
		}
	}
}

// TestExplainNamesMasksAndFactors: -explain's per-node table says which
// nodes keep a mask and what each does with the factors the rewrite carries.
// In LeNet-tiny at 128 bits (HW convolutions) the first convolution and the
// pool drop their masks (no reader looks at their invalid slots), the second
// convolution keeps one per output channel and the Dense its output mask.
// conv1 scales its output by √(1/8)/2 so that act1 and the pool compute
// true values, conv2 by √(1/8) for act2, and fc absorbs nothing. The
// program section sums its instructions by kind and bills its constants,
// and the table's constant columns add up to that bill. Complex-packed at
// batch 8, the bill is what a replay on the lattice holds: the biases, which
// vary across the slots, are encoded once each, and the activations' shifts,
// which do not, never.
func TestExplainNamesMasksAndFactors(t *testing.T) {
	var sb strings.Builder
	if err := compileAndDescribe(&sb, compileConfig{model: "LeNet-tiny", scheme: "seal", security: 128, explain: true}); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			rows[f[0]] = f
		}
	}
	for _, want := range []struct{ node, masks, factor string }{
		{"conv1", "0", "1 -> 5.657"},
		{"act1", "0", "5.657 -> 4"},
		{"pool1", "0", "absorbs 4"},
		{"conv2", "4", "1 -> 2.828"},
		{"fc", "", "-"}, // one mask per neuron group; the layout sets the groups
	} {
		r := rows[want.node]
		if len(r) < 12 {
			t.Fatalf("%s row %v", want.node, r)
		}
		factor := strings.Join(r[9:len(r)-2], " ")
		if (want.masks != "" && r[4] != want.masks) || (want.masks == "" && r[4] == "0") || factor != want.factor {
			t.Errorf("%s row %v: want masks %q and factor %q", want.node, r, want.masks, want.factor)
		}
	}
	// The program: 6 constants whose plaintexts take 3.1 MiB at their
	// levels.
	if consts, bill := requireBillAddsUp(t, sb.String()); consts != 6 || fmt.Sprintf("%.1f", bill) != "3.1" {
		t.Errorf("%d constants in %.1f MiB of plaintexts, want 6 in 3.1", consts, bill)
	}

	sb.Reset()
	cfg := compileConfig{model: "LeNet-tiny", scheme: "seal", security: -1, batch: 8, complex: true, explain: true}
	if err := compileAndDescribe(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	_, bill := requireBillAddsUp(t, sb.String())
	m, err := chet.Model(cfg.model)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := chet.Compile(m.Circuit, chet.Options{Scheme: chet.SchemeRNS, SecurityBits: -1, Batch: 8, Complex: true})
	if err != nil {
		t.Fatal(err)
	}
	session, err := chet.NewSession(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	session.Infer(session.Encrypt(chet.SyntheticImage(m.InputShape, 1)))
	if held := float64(comp.Code.Bytes()) / (1 << 20); fmt.Sprintf("%.1f", held) != fmt.Sprintf("%.1f", bill) {
		t.Errorf("complex-packed: -explain bills %.1f MiB of plaintexts, a replay holds %.2f MiB", bill, held)
	}
}

// requireBillAddsUp parses -explain's per-node table and program section:
// the instructions by kind add up to the program's, and the table's constant
// columns to the program's constants and plaintext bill, which it returns.
func requireBillAddsUp(t *testing.T, out string) (consts int, bill float64) {
	t.Helper()
	tableConsts, tableMiB, tableRows := 0, 0.0, 0
	inTable := false
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "per-node analysis"):
			inTable = true
		case !strings.HasPrefix(line, "  "):
			inTable = false
		case inTable && len(f) >= 12 && f[0] != "node":
			k, err1 := strconv.Atoi(f[7])
			mib, err2 := strconv.ParseFloat(f[8], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("row %q: constant columns %q %q", line, f[7], f[8])
			}
			tableConsts, tableMiB, tableRows = tableConsts+k, tableMiB+mib, tableRows+1
		}
		var n, peak int
		var runs float64
		if _, err := fmt.Sscanf(line, "program: %d instructions, peak %d live registers, %d constants (%f KiB of runs, %f MiB of plaintexts)",
			&n, &peak, &consts, &runs, &bill); err != nil {
			continue
		}
		if peak < 1 || runs <= 0 {
			t.Errorf("program line %q", line)
		}
		// Each row is rounded to 0.005 MiB, the program line to 0.05.
		if tableConsts != consts || math.Abs(tableMiB-bill) > 0.05+0.005*float64(tableRows) {
			t.Errorf("the node table bills %d constants in %.2f MiB, the program line %d in %.1f MiB",
				tableConsts, tableMiB, consts, bill)
		}
		f = strings.Fields(lines[i+1])
		sum := 0
		for j := 1; j < len(f); j += 2 {
			k, _ := strconv.Atoi(f[j])
			sum += k
		}
		if sum != n || !strings.Contains(lines[i+1], "rotsum") {
			t.Errorf("instructions by kind %q add up to %d, not %d", lines[i+1], sum, n)
		}
		return consts, bill
	}
	t.Fatalf("no program line:\n%s", out)
	return 0, 0
}

// TestExplainSpecialPrimes: -explain's special-prime table gives every α its
// own prime size and its own log2(QP) = log2(Q) + α·bits. LeNet-tiny at 128
// bits (N = 2^14, log2(Q) = 332) admits α = 1 at 60 bits and α = 2 at 53 bits,
// whose 438 bits are exactly the security table's budget, and picks α = 2.
func TestExplainSpecialPrimes(t *testing.T) {
	var sb strings.Builder
	if err := compileAndDescribe(&sb, compileConfig{model: "LeNet-tiny", scheme: "seal", security: 128, explain: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "log2(Q) = 332,") || !strings.Contains(out, "special 2×53 (4 digits)") {
		t.Fatalf("parameters changed:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "special primes:") {
			start = i + 2 // past the header row
		}
	}
	if start < 0 {
		t.Fatalf("no special-prime table:\n%s", out)
	}
	var got []string
	for _, line := range lines[start:] {
		f := strings.Fields(line)
		if len(f) < 5 || f[0] == "per-node" {
			break
		}
		got = append(got, strings.Join(f[:len(f)-1], " ")) // without the cost column
	}
	want := []string{"1 8 60 392", "* 2 4 53 438"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("special-prime rows %q, want %q", got, want)
	}
}

func TestCompileAndDescribeErrors(t *testing.T) {
	tiny := func(scales string) compileConfig {
		return compileConfig{model: "LeNet-tiny", scheme: "heaan", security: -1, scales: scales}
	}
	for name, cfg := range map[string]compileConfig{
		"unknown model":        {model: "nope", scheme: "seal"},
		"unknown scheme":       {model: "LeNet-tiny", scheme: "bgv"},
		"three exponents":      tiny("40,35,35"),
		"non-numeric exponent": tiny("40,35,x,30"),
		// A shift by these would wrap to a scale of 0 or 1 — a compile the
		// core would otherwise be handed.
		"zero exponent":     tiny("40,35,35,0"),
		"negative exponent": tiny("40,35,35,-1"),
		"exponent over 62":  tiny("40,35,35,64"),
	} {
		var sb strings.Builder
		if err := compileAndDescribe(&sb, cfg); err == nil {
			t.Errorf("%s: expected an error, got:\n%s", name, sb.String())
		}
	}
}
