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
