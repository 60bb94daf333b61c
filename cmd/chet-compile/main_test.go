package main

import (
	"strings"
	"testing"
)

// TestCompileAndDescribeSmoke compiles the demo network for both schemes
// and checks the decision report is rendered, including the T-thread cost
// model banner.
func TestCompileAndDescribeSmoke(t *testing.T) {
	for _, scheme := range []string{"seal", "heaan"} {
		var sb strings.Builder
		err := compileAndDescribe(&sb, compileConfig{
			model:       "LeNet-tiny",
			scheme:      scheme,
			security:    -1,
			showKeys:    true,
			costThreads: 16,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out := sb.String()
		for _, want := range []string{"best layout policy", "rotation keys", "16-thread makespan"} {
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
// true values, conv2 by √(1/8) for act2, and fc absorbs nothing.
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
		if len(r) < 10 {
			t.Fatalf("%s row %v", want.node, r)
		}
		factor := strings.Join(r[7:len(r)-2], " ")
		if (want.masks != "" && r[4] != want.masks) || (want.masks == "" && r[4] == "0") || factor != want.factor {
			t.Errorf("%s row %v: want masks %q and factor %q", want.node, r, want.masks, want.factor)
		}
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
