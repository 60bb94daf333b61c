package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
)

// testBackend builds a tiny RNS backend with deterministic keys.
func testBackend(t *testing.T) *hisa.RNSBackend {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 5, LogQ: []int{30, 25}, LogP: 30, LogScale: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hisa.NewRNSBackend(hisa.RNSConfig{
		Params: params,
		PRNG:   ring.NewTestPRNG(7),
		Keys:   hisa.FullChainKeys(params, 1, 2, 5),
	})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the payload")
	if err := WriteFrame(&buf, MsgInferRequest, payload); err != nil {
		t.Fatal(err)
	}
	tp, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp != MsgInferRequest || !bytes.Equal(got, payload) {
		t.Fatalf("round trip gave type %v payload %q", tp, got)
	}
	// Clean EOF between frames.
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

func TestFrameRejectsMalformedHeaders(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		_ = WriteFrame(&buf, MsgError, []byte{1, 2, 3})
		return buf.Bytes()
	}

	cases := map[string]func([]byte) []byte{
		"bad magic":      func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":    func(b []byte) []byte { b[4] = 99; return b },
		"unknown type 0": func(b []byte) []byte { b[5] = 0; return b },
		"unknown type":   func(b []byte) []byte { b[5] = 200; return b },
		"nonzero flags":  func(b []byte) []byte { b[6] = 1; return b },
		"truncated header": func(b []byte) []byte {
			return b[:HeaderSize-3]
		},
		"truncated payload": func(b []byte) []byte {
			return b[:len(b)-1]
		},
	}
	for name, corrupt := range cases {
		b := corrupt(valid())
		if _, _, err := ReadFrame(bytes.NewReader(b), 0); err == nil {
			t.Errorf("%s: accepted", name)
		} else if errors.Is(err, io.EOF) && name != "empty" {
			t.Errorf("%s: classified as clean EOF", name)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], FrameMagic)
	hdr[4] = Version
	hdr[5] = byte(MsgInferRequest)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<31-1) // claims a ~2 GiB payload
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame gave %v, want ErrFrameTooLarge", err)
	}
	// The rejection must come from the header alone: no payload bytes were
	// provided, and no attempt to read them may be made.
}

func TestSessionOpenRoundTrip(t *testing.T) {
	b := testBackend(t)
	keys := b.PublicKeys()
	msg := &SessionOpen{
		Rotations: keys.Rotations,
		PK:        keys.PK,
		RLK:       keys.RLK,
		RTKS:      keys.RTKS,
	}
	for i := range msg.Fingerprint {
		msg.Fingerprint[i] = byte(i)
	}
	data, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got SessionOpen
	if err := got.Decode(data); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != msg.Fingerprint {
		t.Fatal("fingerprint mismatch")
	}
	if len(got.Rotations) != len(msg.Rotations) {
		t.Fatalf("rotations %v != %v", got.Rotations, msg.Rotations)
	}
	if len(got.RTKS.Keys) != len(msg.RTKS.Keys) {
		t.Fatalf("rotation key set size %d != %d", len(got.RTKS.Keys), len(msg.RTKS.Keys))
	}
	// The decoded keys must validate against the generating parameters.
	cfg := hisa.RNSConfig{Params: b.Params(), Keys: hisa.FullChainKeys(b.Params(), 1, 2, 5)}
	if err := hisa.ValidateRNSKeys(cfg, hisa.RNSPublicKeys{
		PK: got.PK, RLK: got.RLK, RTKS: got.RTKS, Rotations: got.Rotations,
	}); err != nil {
		t.Fatalf("decoded keys do not validate: %v", err)
	}
	// Corrupt every byte offset class: decode must error, never panic.
	for i := 0; i < len(data); i += 7 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x5A
		var m SessionOpen
		_ = m.Decode(bad) // must not panic; error or (rarely) benign change
	}
	// Truncations must error.
	for i := 0; i < len(data)-1; i += 101 {
		var m SessionOpen
		if err := m.Decode(data[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestCipherTensorRoundTrip(t *testing.T) {
	b := testBackend(t)
	enc := func(vals []float64) hisa.Ciphertext {
		return b.Encrypt(b.Encode(vals, 1<<25))
	}
	ct := &htc.CipherTensor{
		Layout: htc.LayoutHW, C: 2, H: 2, W: 3,
		Offset: 1, RowStride: 4, ColStride: 1, ChanStride: 0, CPerCT: 1,
		CTs: []hisa.Ciphertext{enc([]float64{1, 2}), enc([]float64{3, 4})},
	}
	data, err := EncodeCipherTensor(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCipherTensor(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.C != ct.C || got.H != ct.H || got.W != ct.W || got.CPerCT != ct.CPerCT ||
		got.Offset != ct.Offset || got.RowStride != ct.RowStride || got.Layout != ct.Layout {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, ct)
	}
	if err := got.Validate(b.Slots()); err != nil {
		t.Fatalf("decoded tensor does not validate: %v", err)
	}
	// Decrypt-decode both and compare bit-identically.
	for i := range ct.CTs {
		want := b.Decode(b.Decrypt(ct.CTs[i]))
		have := b.Decode(b.Decrypt(got.CTs[i]))
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("ciphertext %d slot %d differs after round trip", i, j)
			}
		}
	}
}

// TestCipherTensorComplexRoundTrip: the complex-packing marker rides the
// layout byte's high bit and the batch geometry rides two metadata ints, so
// a complex-packed batched tensor must come back with Complex, B, and
// BatchStride intact — and a real-packed tensor must stay unflagged.
func TestCipherTensorComplexRoundTrip(t *testing.T) {
	b := testBackend(t)
	enc := func(vals []float64) hisa.Ciphertext {
		return b.Encrypt(b.Encode(vals, 1<<25))
	}
	ct := &htc.CipherTensor{
		Layout: htc.LayoutCHW, C: 1, H: 2, W: 2,
		RowStride: 2, ColStride: 1, CPerCT: 1,
		B: 2, BatchStride: 8, Complex: true,
		CTs: []hisa.Ciphertext{enc([]float64{1, 2, 3, 4})},
	}
	data, err := EncodeCipherTensor(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCipherTensor(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complex {
		t.Fatal("Complex flag lost in round trip")
	}
	if got.B != 2 || got.BatchStride != 8 {
		t.Fatalf("batch geometry lost: B=%d BatchStride=%d", got.B, got.BatchStride)
	}
	if got.Layout != htc.LayoutCHW {
		t.Fatalf("layout corrupted by the flag bit: %v", got.Layout)
	}
	if err := got.Validate(b.Slots()); err != nil {
		t.Fatalf("decoded tensor does not validate: %v", err)
	}
	want := b.Decode(b.Decrypt(ct.CTs[0]))
	have := b.Decode(b.Decrypt(got.CTs[0]))
	for j := range want {
		if want[j] != have[j] {
			t.Fatalf("slot %d differs after round trip", j)
		}
	}

	// A real-packed tensor must not grow the flag.
	ct.Complex = false
	data, err = EncodeCipherTensor(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeCipherTensor(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Complex {
		t.Fatal("real-packed tensor decoded as complex")
	}
}

func TestCipherTensorRejectsBadMetadata(t *testing.T) {
	b := testBackend(t)
	good := &htc.CipherTensor{
		Layout: htc.LayoutHW, C: 1, H: 2, W: 2,
		RowStride: 2, ColStride: 1, CPerCT: 1,
		CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{1}, 1<<25))},
	}
	data, err := EncodeCipherTensor(good)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*htc.CipherTensor)) []byte {
		c := *good
		f(&c)
		// Encode manually bypassing Encode-side validation (there is none
		// on metadata), so the decoder is what must reject.
		d, err := EncodeCipherTensor(&c)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := map[string][]byte{
		"zero C":          mutate(func(c *htc.CipherTensor) { c.C = 0 }),
		"negative offset": mutate(func(c *htc.CipherTensor) { c.Offset = -1 }),
		"huge stride":     mutate(func(c *htc.CipherTensor) { c.RowStride = 1 << 40 }),
		"count mismatch":  mutate(func(c *htc.CipherTensor) { c.C = 5 }),
	}
	for name, d := range cases {
		if _, err := DecodeCipherTensor(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Bad layout byte.
	bad := append([]byte(nil), data...)
	bad[0] = 9
	if _, err := DecodeCipherTensor(bad); err == nil {
		t.Error("layout 9 accepted")
	}
}

func TestInferMessagesRoundTrip(t *testing.T) {
	b := testBackend(t)
	ct := &htc.CipherTensor{
		Layout: htc.LayoutCHW, C: 1, H: 1, W: 2,
		RowStride: 2, ColStride: 1, ChanStride: 2, CPerCT: 1,
		CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{5, 6}, 1<<25))},
	}
	req := &InferRequest{SessionID: 42, RequestID: 7, TimeoutMillis: 1500, Tensor: ct}
	data, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var gotReq InferRequest
	if err := gotReq.Decode(data); err != nil {
		t.Fatal(err)
	}
	if gotReq.SessionID != 42 || gotReq.RequestID != 7 || gotReq.TimeoutMillis != 1500 {
		t.Fatalf("header fields mangled: %+v", gotReq)
	}

	resp := &InferResponse{RequestID: 7, Tensor: ct}
	data, err = resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var gotResp InferResponse
	if err := gotResp.Decode(data); err != nil {
		t.Fatal(err)
	}
	if gotResp.RequestID != 7 || gotResp.Tensor.NumCTs() != 1 {
		t.Fatalf("response mangled: %+v", gotResp)
	}

	ef := &ErrorFrame{Code: CodeQueueFull, RequestID: 9, Message: "admission queue full"}
	data, err = ef.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var gotErr ErrorFrame
	if err := gotErr.Decode(data); err != nil {
		t.Fatal(err)
	}
	if gotErr.Code != CodeQueueFull || gotErr.RequestID != 9 || gotErr.Message != "admission queue full" {
		t.Fatalf("error frame mangled: %+v", gotErr)
	}

	var accept SessionAccept
	data, _ = (&SessionAccept{SessionID: 11}).Encode()
	if err := accept.Decode(data); err != nil || accept.SessionID != 11 {
		t.Fatalf("session accept mangled: %+v err %v", accept, err)
	}
	// Trailing garbage must be rejected.
	if err := accept.Decode(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestEncodedSizesAreExact pins the size arithmetic servers derive their
// frame limit from to the encoders themselves, for per-prime and grouped
// switching keys cut at mixed levels: a session-open and a fresh cipher
// tensor encode to exactly the predicted byte counts.
func TestEncodedSizesAreExact(t *testing.T) {
	for _, alpha := range []int{1, 2, 3} {
		params, err := ckks.NewParameters(ckks.ParametersLiteral{
			LogN: 5, LogQ: []int{30, 25, 25, 25}, LogP: 30, Alpha: alpha, LogScale: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := &hisa.KeyPlan{Rotations: map[int]int{1: 3, 2: 0, 5: 1, -1: 2}, Relin: 2, Conjugate: -1}
		cfg := hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(7), Keys: plan}
		b := hisa.NewRNSBackend(cfg)
		keys := b.PublicKeys()
		data, err := (&SessionOpen{Rotations: keys.Rotations, PK: keys.PK, RLK: keys.RLK, RTKS: keys.RTKS}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(keys.RTKS.Keys), cfg.RotationKeyCount(); got != want || want != 4 {
			t.Fatalf("α=%d: %d rotation keys generated, RotationKeyCount says %d, the plan has 4", alpha, got, want)
		}
		if err := hisa.ValidateRNSKeys(cfg, keys); err != nil {
			t.Fatalf("α=%d: planned keys do not validate: %v", alpha, err)
		}
		if want := SessionOpenSize(cfg); len(data) != want {
			t.Fatalf("α=%d: session-open encodes to %d bytes, SessionOpenSize says %d", alpha, len(data), want)
		}
		ct := &htc.CipherTensor{
			Layout: htc.LayoutHW, C: 2, H: 2, W: 3, RowStride: 4, ColStride: 1, CPerCT: 1,
			CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{1, 2}, 1<<25)), b.Encrypt(b.Encode([]float64{3}, 1<<25))},
		}
		data, err = EncodeCipherTensor(ct)
		if err != nil {
			t.Fatal(err)
		}
		if want := CipherTensorSize(params, 2); len(data) != want {
			t.Fatalf("α=%d: tensor encodes to %d bytes, CipherTensorSize says %d", alpha, len(data), want)
		}
	}
}
