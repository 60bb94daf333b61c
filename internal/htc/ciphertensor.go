// Package htc implements CHET's Homomorphic Tensor Circuit runtime: the
// CipherTensor datatype with its layout metadata (HW and CHW layouts,
// strides, physical apron padding, channel blocking across ciphertexts) and
// the homomorphic kernels for every tensor operation of the circuit DSL,
// and the compiled program (Program) every runtime replays. The kernels are
// written against the HISA and run only in the compiler, under its analysis
// interpretations (hisa.RunsBackend), whose recording run records the
// program; the plaintext reference backend, both CKKS backends and the
// observers over them execute the program.
//
// Invariant: all ciphertext slots outside a CipherTensor's valid positions
// are (approximately) zero wherever a reader needs them so. Kernels restore
// it with mask multiplications, which is why masks appear in the
// multiplicative depth — the trade-off the paper describes — and Execute
// asks for a mask only where some reader looks at those slots before the
// next one (cleanOutputs, the dirty-slot rule). The circuit output is
// always clean.
package htc

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"

	"chet/internal/hisa"
	"chet/internal/tensor"
)

// Layout selects how tensors map onto ciphertext vectors.
type Layout int

// The two layouts implemented by the runtime (Section 4.2 of the paper).
const (
	// LayoutHW places each channel in its own ciphertext.
	LayoutHW Layout = iota
	// LayoutCHW blocks multiple channels into one ciphertext.
	LayoutCHW
)

func (l Layout) String() string {
	if l == LayoutHW {
		return "HW"
	}
	return "CHW"
}

// Scales carries the four fixed-point scaling factors CHET exposes
// (Section 5.5): Pc for the ciphertext/image, Pw for plaintext (vector)
// weights, Pu for scalar weights, and Pm for masks.
type Scales struct {
	Pc, Pw, Pu, Pm float64
}

// DefaultScales mirrors the paper's starting point of 2^40 for the image and
// generous weight/mask scales.
func DefaultScales() Scales {
	return Scales{
		Pc: math.Exp2(30),
		Pw: math.Exp2(20),
		Pu: math.Exp2(20),
		Pm: math.Exp2(10),
	}
}

// Plan fixes the physical layout decisions for one circuit execution: the
// layout family and the apron (physical zero padding around the original
// grid) that lets padded convolutions pull in zeros instead of neighbouring
// data.
type Plan struct {
	Layout Layout
	Apron  int
	// Batch is the number of images packed along the slot batch axis
	// (nGraph-HE2-style batching): the slot vector is split into
	// nextPow2(Batch) equal lanes and image i lives in lane i. 0 and 1 both
	// mean unbatched.
	Batch int
	// Complex packs two images per batch lane, one in the real and one in
	// the imaginary slot component (nGraph-HE2's complex packing). Batch
	// still counts images; the lane count halves, doubling capacity at
	// constant ring size.
	Complex bool
}

// batches normalizes the plan's batch count (0 means 1).
func (p Plan) batches() int {
	if p.Batch < 1 {
		return 1
	}
	return p.Batch
}

// lanes is the number of physical batch lanes the plan needs.
func (p Plan) lanes() int {
	b := p.batches()
	if p.Complex {
		return (b + 1) / 2
	}
	return b
}

// CipherTensor is an encrypted tensor: ciphertexts plus the plain metadata
// describing where each logical element lives.
type CipherTensor struct {
	Layout Layout

	// Logical dimensions.
	C, H, W int

	// Slot geometry: element (c, y, x) of ciphertext CTs[c/CPerCT] lives at
	// slot Offset + (c%CPerCT)*ChanStride + y*RowStride + x*ColStride.
	Offset     int
	RowStride  int
	ColStride  int
	ChanStride int
	CPerCT     int

	// Batch axis: the slot vector is split into nextPow2(Lanes()) lanes of
	// BatchStride slots each, and lane l occupies slots
	// [l*BatchStride, (l+1)*BatchStride). Every tensor holds B >= 1 images
	// in lanes of BatchStride >= 1 slots (an unbatched tensor is B = 1 with
	// one lane of all the slots); EncryptTensor and DecryptTensor are the one
	// place that maps images onto lanes. All per-image geometry above is
	// lane-relative (lane 0); kernels are batch-oblivious because every
	// homomorphic rotation they issue is smaller than BatchStride, the
	// apron/mask invariant keeps taps from crossing lane boundaries, and
	// every constant repeats its lane-0 runs in every lane (constant).
	B           int
	BatchStride int

	// Complex marks complex-packed tensors: image 2k lives in the real and
	// image 2k+1 in the imaginary slot component of lane k, so the tensor
	// has ceil(B/2) physical lanes. All real-plaintext kernel arithmetic is
	// componentwise and thus packing-oblivious; only ciphertext-ciphertext
	// products and additive constants branch on this flag.
	Complex bool

	CTs []hisa.Ciphertext
}

// Lanes returns the number of physical batch lanes: B for real packing,
// halved (rounded up) for complex packing.
func (ct *CipherTensor) Lanes() int {
	if ct.Complex {
		return (ct.B + 1) / 2
	}
	return ct.B
}

// lane returns where image i lives: the first slot of its lane and the slot
// component holding it (0 real, 1 imaginary). Real packing puts image i in
// lane i; complex packing puts it in lane i/2, component i%2.
func (ct *CipherTensor) lane(i int) (base, part int) {
	if ct.Complex {
		return i / 2 * ct.BatchStride, i % 2
	}
	return i * ct.BatchStride, 0
}

// forEach calls f with every logical element (ch, y, x) that ciphertext g
// holds and its slot in lane 0.
func (ct *CipherTensor) forEach(g int, f func(ch, y, x, slot int)) {
	for ci := 0; ci < ct.CPerCT && g*ct.CPerCT+ci < ct.C; ci++ {
		for y := 0; y < ct.H; y++ {
			for x := 0; x < ct.W; x++ {
				f(g*ct.CPerCT+ci, y, x, ct.pos(ci, y, x))
			}
		}
	}
}

// NumCTs returns the number of ciphertexts.
func (ct *CipherTensor) NumCTs() int { return len(ct.CTs) }

// pos returns the slot of logical element (c within its ciphertext, y, x).
func (ct *CipherTensor) pos(cInCT, y, x int) int {
	return ct.Offset + cInCT*ct.ChanStride + y*ct.RowStride + x*ct.ColStride
}

// Shape returns the logical CHW shape.
func (ct *CipherTensor) Shape() []int { return []int{ct.C, ct.H, ct.W} }

// Validate checks the metadata against itself and a backend's slot count
// without panicking: B and BatchStride must be at least 1, every logical
// position must land in its lane and every lane in [0, slots), and the
// ciphertext count must match the channel blocking. The serving layer calls
// this on tensors received from the network before touching a kernel, where
// the panicking internal checks would take the whole server down.
func (ct *CipherTensor) Validate(slots int) error {
	if ct.C <= 0 || ct.H <= 0 || ct.W <= 0 || ct.CPerCT <= 0 {
		return fmt.Errorf("htc: invalid CipherTensor dims C=%d H=%d W=%d cPerCT=%d",
			ct.C, ct.H, ct.W, ct.CPerCT)
	}
	if ct.Offset < 0 || ct.RowStride < 0 || ct.ColStride < 0 || ct.ChanStride < 0 {
		return fmt.Errorf("htc: negative CipherTensor strides (offset %d, row %d, col %d, chan %d)",
			ct.Offset, ct.RowStride, ct.ColStride, ct.ChanStride)
	}
	if minPos := ct.pos(0, 0, 0); minPos < 0 || minPos >= slots {
		return fmt.Errorf("htc: CipherTensor origin at slot %d outside %d slots", minPos, slots)
	}
	maxPos := ct.pos(min(ct.C, ct.CPerCT)-1, ct.H-1, ct.W-1)
	if maxPos < 0 || maxPos >= slots {
		return fmt.Errorf("htc: CipherTensor overflows %d slots (max position %d)", slots, maxPos)
	}
	if ct.B < 1 || ct.BatchStride < 1 || ct.BatchStride > slots {
		return fmt.Errorf("htc: CipherTensor batch metadata (B %d, batchStride %d) outside [1, %d slots]",
			ct.B, ct.BatchStride, slots)
	}
	if maxPos >= ct.BatchStride {
		return fmt.Errorf("htc: CipherTensor lane overflows batch stride %d (max position %d)",
			ct.BatchStride, maxPos)
	}
	if last := (ct.Lanes()-1)*ct.BatchStride + maxPos; last >= slots {
		return fmt.Errorf("htc: %d batch lanes of stride %d overflow %d slots",
			ct.Lanes(), ct.BatchStride, slots)
	}
	want := (ct.C + ct.CPerCT - 1) / ct.CPerCT
	if len(ct.CTs) != want {
		return fmt.Errorf("htc: CipherTensor has %d ciphertexts, metadata implies %d", len(ct.CTs), want)
	}
	for i, c := range ct.CTs {
		if c == nil {
			return fmt.Errorf("htc: CipherTensor ciphertext %d is nil", i)
		}
	}
	return nil
}

// validate panics when metadata is inconsistent with the slot count.
func (ct *CipherTensor) validate(slots int) {
	if err := ct.Validate(slots); err != nil {
		panic(err.Error())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// planGeometry computes the physical grid for a logical HxW image under the
// plan's apron.
func planGeometry(plan Plan, h, w int) (hp, wp, offset int) {
	p := plan.Apron
	hp, wp = h+2*p, w+2*p
	offset = p*wp + p
	return hp, wp, offset
}

// NewLayout computes the CipherTensor metadata (without ciphertexts) for a
// fresh CHW tensor under the plan on a backend with the given slot count.
// When the plan batches B > 1 images, the slot vector is divided into
// nextPow2(B) equal lanes and the per-image geometry must fit one lane.
func NewLayout(plan Plan, c, h, w, slots int) CipherTensor {
	hp, wp, offset := planGeometry(plan, h, w)
	chanStride := hp * wp
	batch := plan.batches()
	laneSlots := slots / nextPow2(plan.lanes())
	if laneSlots < 1 || chanStride > laneSlots {
		panic(fmt.Sprintf("htc: a %dx%d image (apron %d) does not fit a batch lane of %d slots (batch %d, %d slots)",
			h, w, plan.Apron, laneSlots, batch, slots))
	}
	cPerCT := 1
	if plan.Layout == LayoutCHW {
		cPerCT = blockCapacity(laneSlots, chanStride)
	}
	return CipherTensor{
		Layout:      plan.Layout,
		C:           c,
		H:           h,
		W:           w,
		Offset:      offset,
		RowStride:   wp,
		ColStride:   1,
		ChanStride:  chanStride,
		CPerCT:      cPerCT,
		B:           batch,
		BatchStride: laneSlots,
		Complex:     plan.Complex,
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// blockCapacity returns the power-of-two number of channel blocks that fit
// one ciphertext. Using the full capacity (rather than the channel count)
// keeps the geometry of same-grid tensors identical, so residual adds and
// concatenations line up without repacking.
func blockCapacity(slots, chanStride int) int {
	c := 1
	for c*2 <= slots/chanStride {
		c *= 2
	}
	return c
}

// EncryptTensor encodes and encrypts 1 <= len(imgs) <= plan.Batch CHW images
// of one shape into the batch lanes of one CipherTensor under the plan, at
// scale sc.Pc: image i goes where CipherTensor.lane puts it. Unused lanes
// stay zero, preserving the zero-outside-valid-slots invariant for partial
// batches. Real plans encrypt with Encrypt(Encode), complex plans with
// EncryptC.
func EncryptTensor(b hisa.Backend, plan Plan, sc Scales, imgs ...*tensor.Tensor) *CipherTensor {
	if len(imgs) < 1 || len(imgs) > plan.batches() {
		panic(fmt.Sprintf("htc: %d images for a plan of batch capacity %d", len(imgs), plan.batches()))
	}
	shape := imgs[0].Shape
	for i, t := range imgs {
		if t.Rank() != 3 || !slices.Equal(t.Shape, shape) {
			panic(fmt.Sprintf("htc: EncryptTensor image %d has shape %v, want CHW %v", i, t.Shape, shape))
		}
	}
	meta := NewLayout(plan, shape[0], shape[1], shape[2], b.Slots())
	meta.CTs = make([]hisa.Ciphertext, (meta.C+meta.CPerCT-1)/meta.CPerCT)
	for g := range meta.CTs {
		parts := [2][]float64{make([]float64, b.Slots())}
		if meta.Complex {
			parts[1] = make([]float64, b.Slots())
		}
		for i, t := range imgs {
			base, part := meta.lane(i)
			meta.forEach(g, func(ch, y, x, slot int) { parts[part][base+slot] = t.At(ch, y, x) })
		}
		if !meta.Complex {
			meta.CTs[g] = b.Encrypt(b.Encode(parts[0], sc.Pc))
			continue
		}
		vals := make([]complex128, b.Slots())
		for s := range vals {
			vals[s] = complex(parts[0][s], parts[1][s])
		}
		meta.CTs[g] = b.EncryptC(vals, sc.Pc)
	}
	meta.validate(b.Slots())
	return &meta
}

// DecryptTensor decrypts the first n images of ct, each in its logical CHW
// shape (callers reshape as needed), reading image i where EncryptTensor put
// it. Real tensors decrypt with Decode(Decrypt), complex ones with DecryptC.
func DecryptTensor(b hisa.Backend, ct *CipherTensor, n int) []*tensor.Tensor {
	if n < 1 || n > ct.B {
		panic(fmt.Sprintf("htc: cannot decrypt %d images of a batch-%d tensor", n, ct.B))
	}
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(ct.C, ct.H, ct.W)
	}
	for g, c := range ct.CTs {
		var parts [2][]float64
		if ct.Complex {
			vals := b.DecryptC(c)
			parts = [2][]float64{make([]float64, len(vals)), make([]float64, len(vals))}
			for s, v := range vals {
				parts[0][s], parts[1][s] = real(v), imag(v)
			}
		} else {
			parts[0] = b.Decode(b.Decrypt(c))
		}
		for i, t := range out {
			base, part := ct.lane(i)
			ct.forEach(g, func(ch, y, x, slot int) { t.Set(parts[part][base+slot], ch, y, x) })
		}
	}
	return out
}

// metaClone copies the metadata of src without ciphertexts.
func metaClone(src *CipherTensor) CipherTensor {
	out := *src
	out.CTs = nil
	return out
}

// constant is the constant holding, in every batch lane of ct, the runs
// lane0 appends for lane 0: kernels build only lane 0, and lane l holds the
// same runs BatchStride·l slots on. It builds the runs when the backend asks
// (hisa.RunsBackend), in the canonical form the backend takes.
func (ct *CipherTensor) constant(lane0 func(rs []hisa.Run) []hisa.Run) func() []hisa.Run {
	return func() []hisa.Run {
		rs := lane0(nil)
		n := len(rs)
		for l := 1; l < ct.Lanes(); l++ {
			for _, r := range rs[:n] {
				r.Start += int32(l * ct.BatchStride)
				rs = append(rs, r)
			}
		}
		return canonical(rs)
	}
}

// channels is the constant holding val(ch) at every valid position of each
// channel of ciphertext g: one run per row, or per element where a row's
// elements are not adjacent.
func (ct *CipherTensor) channels(g int, val func(ch int) float64) func() []hisa.Run {
	return ct.constant(func(rs []hisa.Run) []hisa.Run {
		n, w := ct.W, 1
		if ct.ColStride == 1 {
			n, w = 1, ct.W
		}
		for ci := 0; ci < ct.CPerCT && g*ct.CPerCT+ci < ct.C; ci++ {
			v := val(g*ct.CPerCT + ci)
			for y := 0; y < ct.H; y++ {
				for x := 0; x < n; x++ {
					rs = append(rs, hisa.Run{Start: int32(ct.pos(ci, y, x)), Len: int32(w), Value: v})
				}
			}
		}
		return rs
	})
}

// everySlot is the constant holding v in all n slots.
func everySlot(n int, v float64) func() []hisa.Run {
	return func() []hisa.Run { return canonical([]hisa.Run{{Len: int32(n), Value: v}}) }
}

// canonical sorts rs, which must not overlap, by slot, drops the zero runs
// and merges neighbours of one value, in place: the one form of a slot
// vector as runs, so that equal constants are equal runs.
func canonical(rs []hisa.Run) []hisa.Run {
	slices.SortFunc(rs, func(a, b hisa.Run) int { return cmp.Compare(a.Start, b.Start) })
	out := rs[:0]
	for _, r := range rs {
		if r.Value == 0 || r.Len == 0 {
			continue
		}
		if n := len(out); n > 0 {
			end := out[n-1].Start + out[n-1].Len
			if r.Start < end {
				panic(fmt.Sprintf("htc: constant runs overlap at slot %d", r.Start))
			}
			if r.Start == end && r.Value == out[n-1].Value {
				out[n-1].Len += r.Len
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// built is the constant runs builds, nil for none.
func built(runs func() []hisa.Run) []hisa.Run {
	if runs == nil {
		return nil
	}
	return runs()
}

// uniform is the channel value function of a mask: v in every channel.
func uniform(v float64) func(int) float64 { return func(int) float64 { return v } }

// tryRescale applies the HISA rescaling protocol: if the ciphertext's scale
// has grown past base, rescale by the largest divisor the scheme offers
// under scale/base. Works for both power-of-two (CKKS) and prime-product
// (RNS-CKKS) divisor rules. It is a scale decision (decide): a program
// takes it again at run time.
func tryRescale(b hisa.Backend, c hisa.Ciphertext, base float64) hisa.Ciphertext {
	return decide(b, Instr{Op: OpTryRescale, F: base}, nil, []hisa.Ciphertext{c}, func() []hisa.Ciphertext {
		return []hisa.Ciphertext{rescaled(b, c, base)}
	})[0]
}

func rescaled(b hisa.Backend, c hisa.Ciphertext, base float64) hisa.Ciphertext {
	if d := rescaleDivisor(b, c, base); d != nil {
		return b.Rescale(c, d)
	}
	return c
}

// reduceRelin closes a MulNoRelin product (or a linear combination of them):
// it relinearizes at the product's level and applies tryRescale's protocol,
// as one RelinearizeRescale when there is a divisor. A scale decision.
func reduceRelin(b hisa.Backend, c hisa.Ciphertext, base float64) hisa.Ciphertext {
	return decide(b, Instr{Op: OpReduceRelin, F: base}, nil, []hisa.Ciphertext{c}, func() []hisa.Ciphertext {
		return []hisa.Ciphertext{relinearized(b, c, base)}
	})[0]
}

func relinearized(b hisa.Backend, c hisa.Ciphertext, base float64) hisa.Ciphertext {
	if d := rescaleDivisor(b, c, base); d != nil {
		return b.RelinearizeRescale(c, d)
	}
	return b.Relinearize(c)
}

// rescaleDivisor is the divisor the rescaling protocol divides c by, or nil
// when c's scale has not grown past base or the scheme offers no divisor
// under scale/base.
func rescaleDivisor(b hisa.Backend, c hisa.Ciphertext, base float64) *big.Int {
	s := b.Scale(c)
	if s <= base*1.0001 {
		return nil
	}
	ub, _ := big.NewFloat(s / base).Int(nil)
	if ub.Sign() <= 0 {
		return nil
	}
	if d := b.MaxRescale(c, ub); d.Cmp(big.NewInt(1)) != 0 {
		return d
	}
	return nil
}

// alignScales brings two ciphertexts to a common scale before addition,
// multiplying the lower-scaled one by 1 at the ratio when they diverge. A
// scale decision.
func alignScales(b hisa.Backend, x, y hisa.Ciphertext) (hisa.Ciphertext, hisa.Ciphertext) {
	outs := decide(b, Instr{Op: OpAlign}, nil, []hisa.Ciphertext{x, y}, func() []hisa.Ciphertext {
		x, y := aligned(b, x, y)
		return []hisa.Ciphertext{x, y}
	})
	return outs[0], outs[1]
}

func aligned(b hisa.Backend, x, y hisa.Ciphertext) (hisa.Ciphertext, hisa.Ciphertext) {
	sx, sy := b.Scale(x), b.Scale(y)
	switch {
	case math.Abs(sx-sy) <= 1e-6*math.Max(sx, sy):
		return x, y
	case sx < sy:
		return b.MulScalar(x, 1, sy/sx), y
	default:
		return x, b.MulScalar(y, 1, sx/sy)
	}
}

// addPlainAt adds the constant runs builds, encoded at c's scale, to c: a
// scale-neutral addition, and a scale decision.
func addPlainAt(b hisa.RunsBackend, c hisa.Ciphertext, runs func() []hisa.Run) hisa.Ciphertext {
	return decide(b, Instr{Op: OpAddPlainAt}, runs, []hisa.Ciphertext{c}, func() []hisa.Ciphertext {
		return []hisa.Ciphertext{b.AddPlain(c, b.EncodeRuns(runs, b.Scale(c)))}
	})[0]
}
