package boot

import (
	"fmt"
	"math/cmplx"

	"chet/internal/ckks"
)

type matKind int

const (
	matC2S matKind = iota // fold·U⁻¹ (EmbedInv columns)
	matS2C                // fold·U   (Embed columns)
)

// matKey identifies a cached diagonal-plaintext set. The fold constant
// depends on the runtime arrival scale, which is deterministic per call
// site in a compiled circuit, so the cache stays small in practice.
type matKey struct {
	kind  matKind
	fold  float64
	level int
}

// bsgsMatrix holds the BSGS-decomposed diagonals of fold·M as encoded
// plaintexts: pts[k][j] is rot_{−k·n1}(diag_{k·n1+j}), encoded at the level
// it will be consumed at and at the scale of the prime the following
// rescale divides by, so the transform costs exactly one level and
// preserves the ciphertext scale.
type bsgsMatrix struct {
	n1, n2 int
	baby   []int
	pts    [][]*ckks.Plaintext
}

func (b *Bootstrapper) matrixFor(kind matKind, fold float64, level int) (*bsgsMatrix, error) {
	if level < 1 {
		return nil, fmt.Errorf("boot: linear transform needs a level to consume, ciphertext is at %d", level)
	}
	key := matKey{kind: kind, fold: fold, level: level}
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.mats[key]; ok {
		return m, nil
	}

	slots := b.params.Slots()
	n1, n2 := bsgsSplit(slots)

	// Columns of the transform, taken from the encoder's own FFT so the
	// homomorphic DFT is exactly the encoder's embedding.
	cols := make([][]complex128, slots)
	for j := 0; j < slots; j++ {
		e := make([]complex128, slots)
		e[j] = 1
		if kind == matC2S {
			cols[j] = b.enc.EmbedInv(e)
		} else {
			cols[j] = b.enc.Embed(e)
		}
	}

	// The plaintext scale is the prime the post-transform rescale consumes.
	ptScale := float64(b.params.Qi(level))
	baby := make([]int, n1)
	for j := range baby {
		baby[j] = j
	}
	pts := make([][]*ckks.Plaintext, n2)
	for k := 0; k < n2; k++ {
		pts[k] = make([]*ckks.Plaintext, n1)
		for j := 0; j < n1; j++ {
			d := k*n1 + j
			// diag_d[i] = M[i][(i+d) mod s]; pre-rotate right by k·n1 so the
			// giant-step rotation moves it back into place.
			vec := make([]complex128, slots)
			maxAbs := 0.0
			for i := 0; i < slots; i++ {
				v := complex(fold, 0) * cols[((i-k*n1+d)%slots+slots)%slots][((i-k*n1)%slots+slots)%slots]
				vec[i] = v
				if a := cmplx.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs*ptScale < 0.5 {
				continue // rounds to zero everywhere: contributes nothing
			}
			pts[k][j] = b.enc.EncodeComplex(vec, ptScale, level)
		}
	}
	m := &bsgsMatrix{n1: n1, n2: n2, baby: baby, pts: pts}
	b.mats[key] = m
	return m, nil
}

// applyBSGS multiplies ct's slot vector by the cached matrix as two sums of
// rotations (ckks.Evaluator.RotSum), each kept in the extended basis with
// one ModDown per output: the baby steps share one decomposition of ct and
// give one inner sum per giant step, Σ_j pts[k][j]·rot_j(ct); the giant
// steps rotate and add the inner sums. One rescale at the end consumes
// exactly one level.
func (b *Bootstrapper) applyBSGS(ct *ckks.Ciphertext, mat *bsgsMatrix) (*ckks.Ciphertext, error) {
	ev := b.ev
	var inner [][]ckks.SumTerm
	var outer []ckks.SumTerm
	for k := 0; k < mat.n2; k++ {
		var terms []ckks.SumTerm
		for j := 0; j < mat.n1; j++ {
			if pt := mat.pts[k][j]; pt != nil {
				terms = append(terms, ckks.SumTerm{Rot: mat.baby[j], Pt: pt})
			}
		}
		if len(terms) > 0 {
			outer = append(outer, ckks.SumTerm{Src: len(inner), Rot: k * mat.n1})
			inner = append(inner, terms)
		}
	}
	if len(inner) == 0 {
		return nil, fmt.Errorf("boot: linear transform has no nonzero diagonals")
	}
	giants := ev.RotSum([]*ckks.Ciphertext{ct}, inner)
	total := ev.RotSum(giants, [][]ckks.SumTerm{outer})[0]
	for _, g := range giants {
		ev.Recycle(g)
	}
	ev.Rescale(total)
	return total, nil
}
