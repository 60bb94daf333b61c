package wire

import (
	"fmt"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/htc"
)

// Caps on tensor metadata. Metadata is attacker-controlled on the server
// side, so every field is bounded before any allocation or use; the serve
// layer additionally validates the geometry against the backend's slot
// count before evaluating.
const (
	maxTensorCTs = 1 << 14
	maxTensorDim = 1 << 20
	maxSlotIndex = 1 << 26 // beyond any supported ring (N <= 2^16)

	// tensorComplexFlag marks a complex-packed tensor in the layout byte's
	// high bit (layout values occupy the low bits).
	tensorComplexFlag = 0x80
)

// encodeCipherTensor appends the layout metadata and ciphertexts of ct.
// Only RNS-CKKS ciphertexts (*ckks.Ciphertext) cross the wire: the mock
// HEAAN backend has no transferable key material, so serving is an
// RNS-scheme feature.
func encodeCipherTensor(e *enc, ct *htc.CipherTensor) error {
	if ct == nil {
		return fmt.Errorf("wire: nil cipher tensor")
	}
	// The layout byte carries the complex-packing flag in its high bit, so
	// the frame format (and every real-packed frame) is unchanged.
	lb := byte(ct.Layout)
	if ct.Complex {
		lb |= tensorComplexFlag
	}
	e.u8(lb)
	for _, v := range []int{ct.C, ct.H, ct.W, ct.Offset, ct.RowStride,
		ct.ColStride, ct.ChanStride, ct.CPerCT, ct.B, ct.BatchStride} {
		e.i64(v)
	}
	if len(ct.CTs) > maxTensorCTs {
		return fmt.Errorf("wire: tensor with %d ciphertexts exceeds cap %d", len(ct.CTs), maxTensorCTs)
	}
	e.u32(uint32(len(ct.CTs)))
	for i, c := range ct.CTs {
		cc, ok := c.(*ckks.Ciphertext)
		if !ok {
			return fmt.Errorf("wire: ciphertext %d is %T, want *ckks.Ciphertext (serve requires the RNS scheme)", i, c)
		}
		if err := e.marshalInto(cc); err != nil {
			return err
		}
	}
	return nil
}

// CipherTensorSize is the largest encoding of a tensor of `ciphertexts`
// ciphertexts under params (exact for top-level ciphertexts; lower levels
// are smaller).
func CipherTensorSize(params *ckks.Parameters, ciphertexts int) int {
	return 1 + 10*8 + 4 + ciphertexts*(4+params.CiphertextSize())
}

// decodeCipherTensor parses what encodeCipherTensor wrote, validating every
// metadata field against the caps above.
func decodeCipherTensor(d *dec) (*htc.CipherTensor, error) {
	lb := d.u8()
	layout := lb &^ tensorComplexFlag
	cplx := lb&tensorComplexFlag != 0
	var dims [10]int
	for i := range dims {
		dims[i] = d.i64()
	}
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if layout > 1 {
		return nil, fmt.Errorf("wire: unknown tensor layout %d", layout)
	}
	c, h, w := dims[0], dims[1], dims[2]
	offset, rowS, colS, chanS, cPerCT := dims[3], dims[4], dims[5], dims[6], dims[7]
	batch, batchS := dims[8], dims[9]
	switch {
	case c < 1 || c > maxTensorDim || h < 1 || h > maxTensorDim || w < 1 || w > maxTensorDim:
		return nil, fmt.Errorf("wire: implausible tensor dims C=%d H=%d W=%d", c, h, w)
	case cPerCT < 1 || cPerCT > maxTensorDim:
		return nil, fmt.Errorf("wire: implausible channels-per-ciphertext %d", cPerCT)
	case offset < 0 || offset > maxSlotIndex,
		rowS < 0 || rowS > maxSlotIndex,
		colS < 0 || colS > maxSlotIndex,
		chanS < 0 || chanS > maxSlotIndex:
		return nil, fmt.Errorf("wire: implausible tensor strides (offset %d, row %d, col %d, chan %d)",
			offset, rowS, colS, chanS)
	case batch < 1 || batch > maxBatchLanes:
		return nil, fmt.Errorf("wire: implausible tensor batch %d", batch)
	case batchS < 1 || batchS > maxSlotIndex:
		return nil, fmt.Errorf("wire: implausible tensor batch stride %d", batchS)
	case n < 0 || n > maxTensorCTs:
		return nil, fmt.Errorf("wire: implausible ciphertext count %d", n)
	}
	want := (c + cPerCT - 1) / cPerCT
	if n != want {
		return nil, fmt.Errorf("wire: tensor carries %d ciphertexts, metadata implies %d", n, want)
	}
	out := &htc.CipherTensor{
		Layout: htc.Layout(layout), C: c, H: h, W: w,
		Offset: offset, RowStride: rowS, ColStride: colS,
		ChanStride: chanS, CPerCT: cPerCT,
		B: batch, BatchStride: batchS,
		Complex: cplx,
		CTs:     make([]hisa.Ciphertext, 0, n),
	}
	for i := 0; i < n; i++ {
		blob := d.blob()
		if d.err != nil {
			return nil, d.err
		}
		ct := &ckks.Ciphertext{}
		if err := ct.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("wire: ciphertext %d: %w", i, err)
		}
		out.CTs = append(out.CTs, ct)
	}
	return out, nil
}

// EncodeCipherTensor serializes an RNS-CKKS cipher tensor standalone (the
// message codecs embed the same format inline).
func EncodeCipherTensor(ct *htc.CipherTensor) ([]byte, error) {
	e := &enc{}
	if err := encodeCipherTensor(e, ct); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// DecodeCipherTensor parses a standalone cipher tensor.
func DecodeCipherTensor(data []byte) (*htc.CipherTensor, error) {
	d := &dec{buf: data}
	ct, err := decodeCipherTensor(d)
	if err != nil {
		return nil, err
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return ct, nil
}
