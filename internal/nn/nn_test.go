package nn

import (
	"math"
	"testing"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
)

func TestAllModelsBuildAndEvaluate(t *testing.T) {
	for _, m := range All() {
		img := SyntheticImage(m.InputShape, 1)
		out := m.Circuit.Evaluate(img)
		if out.Size() == 0 {
			t.Fatalf("%s: empty output", m.Name)
		}
		for i, v := range out.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: output %d is %v", m.Name, i, v)
			}
			if math.Abs(v) > 1e6 {
				t.Fatalf("%s: output %d = %g; magnitudes must stay bounded for FHE", m.Name, i, v)
			}
		}
		if m.Circuit.Flops() <= 0 {
			t.Fatalf("%s: no FLOPs", m.Name)
		}
	}
}

func TestTable3LayerCounts(t *testing.T) {
	// Layer counts of Table 3 (conv / FC / activations).
	want := map[string][3]int{
		"LeNet-5-small":  {2, 2, 4},
		"LeNet-5-medium": {2, 2, 4},
		"LeNet-5-large":  {2, 2, 4},
		"Industrial":     {5, 2, 6},
		// 14 conv ops implement the paper's "10 layers": each Fire module's
		// two expand convolutions run in parallel and count as one layer.
		"SqueezeNet-CIFAR": {14, 0, 9},
	}
	for _, m := range All() {
		lc := m.Circuit.CountLayers()
		w := want[m.Name]
		if lc.Conv != w[0] || lc.Dense != w[1] || lc.Act != w[2] {
			t.Fatalf("%s: conv/fc/act = %d/%d/%d, want %d/%d/%d",
				m.Name, lc.Conv, lc.Dense, lc.Act, w[0], w[1], w[2])
		}
	}
}

func TestModelSizesAreOrdered(t *testing.T) {
	small := LeNet5Small().Circuit.Flops()
	medium := LeNet5Medium().Circuit.Flops()
	large := LeNet5Large().Circuit.Flops()
	if !(small < medium && medium < large) {
		t.Fatalf("LeNet FLOPs not ordered: %d, %d, %d", small, medium, large)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"LeNet-5-small", "SqueezeNet-CIFAR", "LeNet-tiny"} {
		m, err := ByName(name)
		if err != nil || m.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("AlexNet"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestSyntheticImageDeterministic(t *testing.T) {
	a := SyntheticImage([]int{1, 8, 8}, 42)
	b := SyntheticImage([]int{1, 8, 8}, 42)
	c := SyntheticImage([]int{1, 8, 8}, 43)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must give identical images")
		}
		if a.Data[i] < 0 || a.Data[i] >= 1 {
			t.Fatalf("pixel %g out of [0,1)", a.Data[i])
		}
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave the same image")
	}
}

func TestModelsRunHomomorphicallyOnRef(t *testing.T) {
	// Every evaluation network must execute through the homomorphic tensor
	// runtime (functional oracle backend) and match plaintext inference.
	for _, m := range []*Model{LeNet5Small(), Industrial(), SqueezeNetCIFAR()} {
		img := SyntheticImage(m.InputShape, 2)
		want := m.Circuit.Evaluate(img)

		b := hisa.NewRefBackend(8192)
		sc := htc.DefaultScales()
		policy := htc.PolicyCHW
		in := htc.EncryptTensor(b, htc.PlanFor(m.Circuit, policy), sc, img)
		out := htc.Execute(b, m.Circuit, in, policy, sc, htc.ExecOptions{})
		got := htc.DecryptTensor(b, out, 1)[0]
		if got.Size() != want.Size() {
			t.Fatalf("%s: output size %d want %d", m.Name, got.Size(), want.Size())
		}
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-4 {
				t.Fatalf("%s: output %d = %g, want %g", m.Name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestSqueezeNetUsesFireModules(t *testing.T) {
	m := SqueezeNetCIFAR()
	concats := 0
	for _, n := range m.Circuit.Nodes {
		if n.Kind == circuit.OpConcat {
			concats++
		}
	}
	if concats != 4 {
		t.Fatalf("SqueezeNet-CIFAR has %d Fire concatenations, want 4", concats)
	}
	if m.Circuit.Output.OutShape[0] != 10 {
		t.Fatalf("classifier output %v, want 10 classes", m.Circuit.Output.OutShape)
	}
}
