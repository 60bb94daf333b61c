package telemetry

import (
	"math"
	"testing"

	"chet/internal/core"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// TestPrecisionProfileTrueUnits: on the folded LeNet-tiny, whose conv1, act1
// and conv2 outputs carry factors other than 1, every row of the profile is
// the node's error in true units — max|Out·computed − true| against the
// source circuit's node value. The computed values come from a replay on a
// second backend built from the same seed, which executes bit for bit what
// the profiled one does.
func TestPrecisionProfileTrueUnits(t *testing.T) {
	src := nn.LeNetTiny().Circuit
	comp, err := core.Compile(src, core.Options{Scheme: core.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11})
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(src.Input.OutShape...)
	for i := range img.Data {
		img.Data[i] = math.Sin(float64(i)) * 0.5
	}
	profiled, err := core.BuildBackend(comp, ring.NewTestPRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	rows := PrecisionProfile(profiled, comp, img)

	twin, err := core.BuildBackend(comp, ring.NewTestPRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	prog := comp.Program.Circuit
	computed := map[string][]float64{}
	for i, out := range comp.Code.ExecuteNodes(twin, comp.Encrypt(twin, img), 1) {
		n := prog.Nodes[comp.Code.Spans[i].Node]
		got := htc.DecryptTensor(twin, out, 1)[0].Data
		for i := range got {
			got[i] *= comp.Program.Factors[n.ID].Out
		}
		computed[n.Kind.String()+":"+n.Name] = got
	}
	truth := map[string][]float64{}
	sourceValues := src.EvaluateNodes(img)
	for _, n := range src.Nodes {
		truth[n.Name] = sourceValues[n.ID].Data
	}

	scaled := 0
	for _, n := range prog.Nodes {
		if f := comp.Program.Factors[n.ID].Out; f != 1 {
			scaled++
		}
	}
	if scaled == 0 {
		t.Fatal("no node of the folded program carries a factor: nothing to check")
	}
	if len(rows) != len(prog.Nodes) {
		t.Fatalf("%d rows for %d program nodes", len(rows), len(prog.Nodes))
	}
	for i, row := range rows {
		n := prog.Nodes[i]
		got, want := computed[row.Node], truth[n.Name]
		if got == nil || len(got) != len(want) {
			t.Fatalf("%s: %d computed values against %d true ones", row.Node, len(got), len(want))
		}
		worst := 0.0
		for k := range want {
			worst = math.Max(worst, math.Abs(got[k]-want[k]))
		}
		if math.Abs(row.MaxErr-worst) > 1e-3*worst+1e-12 {
			t.Errorf("%s: profile reports max|err| %.6g, the true error is %.6g (factor %g)",
				row.Node, row.MaxErr, worst, comp.Program.Factors[n.ID].Out)
		}
	}
}
