package telemetry

import (
	"fmt"
	"math"
	"strings"

	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
)

// LayerPrecision records, for one circuit node, how far a backend's
// encrypted execution has drifted from the plaintext Ref oracle running the
// identical homomorphic program — the per-layer observable the paper's
// profile-guided scaling search consumes (§5.5): max/RMS output error plus
// the live fixed-point scale on both executions.
type LayerPrecision struct {
	Node string // "conv2d:conv1"
	// MaxErr/RMSErr compare the decrypted node output against the Ref
	// oracle's, element-wise over the node's logical tensor, in true units:
	// both sides are scaled by the node's output factor (circuit.Program).
	MaxErr, RMSErr float64
	// Scale and RefScale are the fixed-point scales of the first output
	// ciphertext on the profiled backend and the oracle; ScaleDrift is
	// their log2 difference (0 means the schedules agree exactly).
	Scale, RefScale, ScaleDrift float64
	// Level is the output ciphertext level on the profiled backend
	// (-1 when the backend has no level notion).
	Level int
	// Elems is the number of compared elements.
	Elems int
}

// PrecisionProfile runs the program's kernels twice — once on b, once on a
// fresh plaintext Ref oracle — and compares every node's decrypted output
// (the kernels issue what the compiled program replays, bit for bit). A
// node computes its true value divided by its output factor, so each
// difference is multiplied by that factor. The backend must hold decryption
// capability (a session backend, not an eval-only one); run it behind a flag,
// since decrypting every intermediate costs a decrypt+decode per ciphertext
// per layer.
func PrecisionProfile(b hisa.Backend, prog *circuit.Program, img *tensor.Tensor,
	policy htc.LayoutPolicy, sc htc.Scales) []LayerPrecision {

	c := prog.Circuit
	plan := htc.PlanFor(c, policy)
	ref := hisa.NewRefBackend(b.Slots())

	// Pass 1: the profiled backend, collecting each node's output tensor.
	outs := make(map[int]*htc.CipherTensor, len(c.Nodes))
	encB := htc.EncryptTensor(b, plan, sc, img)
	htc.Execute(b, c, encB, policy, sc, htc.ExecOptions{
		OnNode: func(n *circuit.Node, out *htc.CipherTensor) { outs[n.ID] = out },
	})

	var levelOf func(hisa.Ciphertext) int
	if lb, ok := hisa.AsLeveledEncode(b); ok {
		levelOf = lb.LevelOf
	}

	// Pass 2: the oracle in lockstep, comparing node by node.
	var rows []LayerPrecision
	encR := htc.EncryptTensor(ref, plan, sc, img)
	htc.Execute(ref, c, encR, policy, sc, htc.ExecOptions{
		OnNode: func(n *circuit.Node, refOut *htc.CipherTensor) {
			bOut := outs[n.ID]
			if bOut == nil {
				return
			}
			got := htc.DecryptTensor(b, bOut, 1)[0]
			want := htc.DecryptTensor(ref, refOut, 1)[0]
			row := LayerPrecision{
				Node:     fmt.Sprintf("%v:%s", n.Kind, n.Name),
				Scale:    b.Scale(bOut.CTs[0]),
				RefScale: ref.Scale(refOut.CTs[0]),
				Level:    -1,
				Elems:    len(want.Data),
			}
			if row.Scale > 0 && row.RefScale > 0 {
				row.ScaleDrift = math.Log2(row.Scale) - math.Log2(row.RefScale)
			}
			if levelOf != nil {
				row.Level = levelOf(bOut.CTs[0])
			}
			var sumSq float64
			factor := math.Abs(prog.Factors[n.ID].Out)
			for i := range want.Data {
				e := factor * math.Abs(got.Data[i]-want.Data[i])
				if e > row.MaxErr {
					row.MaxErr = e
				}
				sumSq += e * e
			}
			if row.Elems > 0 {
				row.RMSErr = math.Sqrt(sumSq / float64(row.Elems))
			}
			rows = append(rows, row)
		},
	})
	return rows
}

// RenderPrecision formats the per-layer table chet-run -profile prints.
func RenderPrecision(rows []LayerPrecision) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer precision vs plaintext oracle:\n")
	fmt.Fprintf(&sb, "  %-28s %10s %10s %6s %10s %10s\n",
		"layer", "max|err|", "rms err", "level", "scale", "drift(b)")
	for _, r := range rows {
		lvl := "-"
		if r.Level >= 0 {
			lvl = fmt.Sprintf("%d", r.Level)
		}
		fmt.Fprintf(&sb, "  %-28s %10.2e %10.2e %6s %10.3g %+10.2f\n",
			r.Node, r.MaxErr, r.RMSErr, lvl, r.Scale, r.ScaleDrift)
	}
	return sb.String()
}
