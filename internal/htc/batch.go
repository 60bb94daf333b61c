// Batch-axis slot packing (nGraph-HE2-style): B images share one ciphertext
// vector by living in disjoint power-of-two-aligned lanes of BatchStride
// slots. Every kernel in this package is batch-oblivious — its homomorphic
// rotations are lane-local and its plaintext vectors are replicated per lane
// — so one evaluation amortizes across the whole batch.
package htc

import (
	"fmt"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// EncryptTensorBatch encodes and encrypts up to plan-capacity CHW images
// into the batch lanes of one CipherTensor. All images must share the same
// shape. Unused lanes stay zero, preserving the zero-outside-valid-slots
// invariant for partial batches.
func EncryptTensorBatch(b hisa.Backend, ts []*tensor.Tensor, plan Plan, sc Scales) *CipherTensor {
	if len(ts) == 0 {
		panic("htc: EncryptTensorBatch wants at least one tensor")
	}
	if len(ts) > plan.batches() {
		panic(fmt.Sprintf("htc: %d images exceed the plan's batch capacity %d", len(ts), plan.Batch))
	}
	shape := ts[0].Shape
	for i, t := range ts {
		if t.Rank() != 3 || t.Shape[0] != shape[0] || t.Shape[1] != shape[1] || t.Shape[2] != shape[2] {
			panic(fmt.Sprintf("htc: EncryptTensorBatch image %d has shape %v, want %v", i, t.Shape, shape))
		}
	}
	c, h, w := shape[0], shape[1], shape[2]
	meta := NewLayout(plan, c, h, w, b.Slots())

	numCTs := (c + meta.CPerCT - 1) / meta.CPerCT
	meta.CTs = make([]hisa.Ciphertext, numCTs)
	ls := meta.laneStride(b.Slots())
	if meta.Complex {
		// Complex packing: image i lives in the real (i even) or imaginary
		// (i odd) slot component of physical lane i/2 — twice the images at
		// the same ring size.
		for g := 0; g < numCTs; g++ {
			cvals := make([]complex128, b.Slots())
			for i, t := range ts {
				base := (i / 2) * ls
				imPart := i%2 == 1
				for ci := 0; ci < meta.CPerCT; ci++ {
					ch := g*meta.CPerCT + ci
					if ch >= c {
						break
					}
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							idx := base + meta.pos(ci, y, x)
							if imPart {
								cvals[idx] = complex(real(cvals[idx]), t.At(ch, y, x))
							} else {
								cvals[idx] = complex(t.At(ch, y, x), imag(cvals[idx]))
							}
						}
					}
				}
			}
			meta.CTs[g] = b.EncryptC(cvals, sc.Pc)
		}
		meta.validate(b.Slots())
		return &meta
	}
	for g := 0; g < numCTs; g++ {
		vals := make([]float64, b.Slots())
		for lane, t := range ts {
			base := lane * ls
			for ci := 0; ci < meta.CPerCT; ci++ {
				ch := g*meta.CPerCT + ci
				if ch >= c {
					break
				}
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						vals[base+meta.pos(ci, y, x)] = t.At(ch, y, x)
					}
				}
			}
		}
		meta.CTs[g] = b.Encrypt(b.Encode(vals, sc.Pc))
	}
	meta.validate(b.Slots())
	return &meta
}

// DecryptTensorLane decrypts one packed image by its image index. For real
// packing image i is batch lane i; for complex packing image i lives in the
// real (i even) or imaginary (i odd) component of physical lane i/2.
func DecryptTensorLane(b hisa.Backend, ct *CipherTensor, lane int) *tensor.Tensor {
	if lane < 0 || lane >= ct.Batches() {
		panic(fmt.Sprintf("htc: lane %d out of range for batch %d", lane, ct.Batches()))
	}
	out := tensor.New(ct.C, ct.H, ct.W)
	if ct.Complex {
		base := (lane / 2) * ct.laneStride(b.Slots())
		imPart := lane%2 == 1
		for g := 0; g < ct.NumCTs(); g++ {
			vals := b.DecryptC(ct.CTs[g])
			for ci := 0; ci < ct.CPerCT; ci++ {
				ch := g*ct.CPerCT + ci
				if ch >= ct.C {
					break
				}
				for y := 0; y < ct.H; y++ {
					for x := 0; x < ct.W; x++ {
						v := vals[base+ct.pos(ci, y, x)]
						if imPart {
							out.Set(imag(v), ch, y, x)
						} else {
							out.Set(real(v), ch, y, x)
						}
					}
				}
			}
		}
		return out
	}
	base := lane * ct.laneStride(b.Slots())
	for g := 0; g < ct.NumCTs(); g++ {
		vals := b.Decode(b.Decrypt(ct.CTs[g]))
		for ci := 0; ci < ct.CPerCT; ci++ {
			ch := g*ct.CPerCT + ci
			if ch >= ct.C {
				break
			}
			for y := 0; y < ct.H; y++ {
				for x := 0; x < ct.W; x++ {
					out.Set(vals[base+ct.pos(ci, y, x)], ch, y, x)
				}
			}
		}
	}
	return out
}

// DecryptTensorBatch decrypts all n leading batch lanes (n <= Batches()).
func DecryptTensorBatch(b hisa.Backend, ct *CipherTensor, n int) []*tensor.Tensor {
	if n < 1 || n > ct.Batches() {
		panic(fmt.Sprintf("htc: cannot decrypt %d lanes of a batch-%d tensor", n, ct.Batches()))
	}
	out := make([]*tensor.Tensor, n)
	for lane := 0; lane < n; lane++ {
		out[lane] = DecryptTensorLane(b, ct, lane)
	}
	return out
}
