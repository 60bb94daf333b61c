package wire

import (
	"bytes"
	"testing"
	"time"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
	"chet/internal/telemetry"
)

// fuzzSeedFrames builds one valid frame of every type, so the fuzzer starts
// from deep-decoding inputs instead of rediscovering the header format.
func fuzzSeedFrames(f *testing.F) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 4, LogQ: []int{30}, LogP: 30, LogScale: 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	b := hisa.NewRNSBackend(hisa.RNSConfig{
		Params: params, PRNG: ring.NewTestPRNG(3), Keys: hisa.FullChainKeys(params, 1),
	})
	keys := b.PublicKeys()
	ct := &htc.CipherTensor{
		Layout: htc.LayoutHW, C: 1, H: 1, W: 2,
		RowStride: 2, ColStride: 1, CPerCT: 1,
		CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{1, 2}, 1<<20))},
	}

	frame := func(t MsgType, payload []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	// A batched variant: two lanes of a 1x1x2 image in the 16-slot ring.
	bct := &htc.CipherTensor{
		Layout: htc.LayoutHW, C: 1, H: 1, W: 2,
		RowStride: 2, ColStride: 1, CPerCT: 1,
		B: 2, BatchStride: 4,
		CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{1, 2, 0, 0, 3, 4}, 1<<20))},
	}

	open := &SessionOpen{Rotations: keys.Rotations, PK: keys.PK, RLK: keys.RLK, RTKS: keys.RTKS}
	p, err := open.Encode()
	f.Add(frame(MsgSessionOpen, p, err))
	p, err = (&SessionAccept{SessionID: 1}).Encode()
	f.Add(frame(MsgSessionAccept, p, err))
	p, err = (&InferRequest{SessionID: 1, RequestID: 2, TraceID: 0xABCD, ParentSpan: 0x1234, Tensor: ct}).Encode()
	f.Add(frame(MsgInferRequest, p, err))
	p, err = (&InferResponse{RequestID: 2, Tensor: ct}).Encode()
	f.Add(frame(MsgInferResponse, p, err))
	p, err = (&InferResponse{RequestID: 2, Batch: 2, Lane: 1, Tensor: bct}).Encode()
	f.Add(frame(MsgInferResponse, p, err))
	p, err = (&ErrorFrame{Code: CodeInternal, Message: "boom"}).Encode()
	f.Add(frame(MsgError, p, err))
	p, err = (&InferBatchRequest{SessionID: 1, RequestID: 3, TraceID: 0xEF01, ParentSpan: 0x5678, Count: 2, Tensor: bct}).Encode()
	f.Add(frame(MsgInferBatchRequest, p, err))
	p, err = (&InferBatchResponse{RequestID: 3, Count: 2, Tensor: bct}).Encode()
	f.Add(frame(MsgInferBatchResponse, p, err))
	p, err = (&HealthProbe{Nonce: 99}).Encode()
	f.Add(frame(MsgHealthProbe, p, err))
	p, err = (&HealthAck{Nonce: 99, ActiveSessions: 2, Inflight: 1, Draining: true,
		Bootstraps: 5, MinHeadroom: -1, HeadroomKnown: true}).Encode()
	f.Add(frame(MsgHealthAck, p, err))
	p, err = (&RegistrySync{Entries: []RegistryEntry{{Model: "LeNet-tiny", LogN: 13, Batch: 8}}}).Encode()
	f.Add(frame(MsgRegistrySync, p, err))
	p, err = (&RegistrySyncAck{Entries: []RegistryEntry{{Model: "m", LogN: 11, Batch: 1}}}).Encode()
	f.Add(frame(MsgRegistrySyncAck, p, err))
	openPayload, err := open.Encode()
	if err != nil {
		f.Fatal(err)
	}
	p, err = (&SessionHandoff{RouterSessionID: 7, Open: openPayload}).Encode()
	f.Add(frame(MsgSessionHandoff, p, err))
	p, err = (&SessionHandoffAck{RouterSessionID: 7, WorkerSessionID: 8}).Encode()
	f.Add(frame(MsgSessionHandoffAck, p, err))
	p, err = (&TraceDump{TraceID: 0xABCD}).Encode()
	f.Add(frame(MsgTraceDump, p, err))
	p, err = (&TraceDumpAck{Process: "worker-a", EpochUnixNano: 1_700_000_000_000_000_000,
		Spans: []telemetry.Span{{
			Kind: telemetry.KindScope, Op: "request", Dur: time.Millisecond,
			LevelIn: 9, LevelOut: 3, ScaleIn: 1 << 40, ScaleOut: 1 << 40,
			TraceID: 0xABCD, SpanID: 0x1234, Parent: 0x5678,
		}}}).Encode()
	f.Add(frame(MsgTraceDumpAck, p, err))
	f.Add([]byte{})
	f.Add([]byte{0xF1, 0x5E, 0xE7, 0xC4, 1, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
}

// FuzzWireFrame proves the whole receive path is total: framing plus every
// message decoder accepts arbitrary bytes without panicking, and anything
// that decodes re-encodes to bytes that decode again.
func FuzzWireFrame(f *testing.F) {
	fuzzSeedFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the frame size so a lying header cannot make the fuzzer OOM;
		// the limit logic itself is under test too.
		tp, payload, err := ReadFrame(bytes.NewReader(data), 1<<22)
		if err != nil {
			return
		}
		switch tp {
		case MsgSessionOpen:
			var m SessionOpen
			if m.Decode(payload) == nil {
				reenc, err := m.Encode()
				if err != nil {
					t.Fatalf("decoded session-open does not re-encode: %v", err)
				}
				var m2 SessionOpen
				if err := m2.Decode(reenc); err != nil {
					t.Fatalf("re-encoded session-open does not decode: %v", err)
				}
			}
		case MsgSessionAccept:
			var m SessionAccept
			_ = m.Decode(payload)
		case MsgInferRequest:
			var m InferRequest
			if m.Decode(payload) == nil {
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded infer-request does not re-encode: %v", err)
				}
			}
		case MsgInferResponse:
			var m InferResponse
			if m.Decode(payload) == nil {
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded infer-response does not re-encode: %v", err)
				}
			}
		case MsgError:
			var m ErrorFrame
			_ = m.Decode(payload)
		case MsgInferBatchRequest:
			var m InferBatchRequest
			if m.Decode(payload) == nil {
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded infer-batch-request does not re-encode: %v", err)
				}
			}
		case MsgInferBatchResponse:
			var m InferBatchResponse
			if m.Decode(payload) == nil {
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded infer-batch-response does not re-encode: %v", err)
				}
			}
		case MsgHealthProbe:
			var m HealthProbe
			_ = m.Decode(payload)
		case MsgHealthAck:
			var m HealthAck
			if m.Decode(payload) == nil {
				reenc, err := m.Encode()
				if err != nil {
					t.Fatalf("decoded health-ack does not re-encode: %v", err)
				}
				var m2 HealthAck
				if err := m2.Decode(reenc); err != nil {
					t.Fatalf("re-encoded health-ack does not decode: %v", err)
				}
				if m2 != m {
					t.Fatal("health-ack not stable across re-encoding")
				}
			}
		case MsgRegistrySync:
			var m RegistrySync
			if m.Decode(payload) == nil {
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded registry-sync does not re-encode: %v", err)
				}
			}
		case MsgRegistrySyncAck:
			var m RegistrySyncAck
			if m.Decode(payload) == nil {
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded registry-sync-ack does not re-encode: %v", err)
				}
			}
		case MsgSessionHandoff:
			var m SessionHandoff
			if m.Decode(payload) == nil {
				// A decoded handoff carries an opaque session-open blob; the
				// worker-side path runs it through the SessionOpen decoder,
				// which must itself be total.
				var inner SessionOpen
				_ = inner.Decode(m.Open)
				if _, err := m.Encode(); err != nil {
					t.Fatalf("decoded session-handoff does not re-encode: %v", err)
				}
			}
		case MsgSessionHandoffAck:
			var m SessionHandoffAck
			_ = m.Decode(payload)
		case MsgTraceDump:
			var m TraceDump
			_ = m.Decode(payload)
		case MsgTraceDumpAck:
			var m TraceDumpAck
			if m.Decode(payload) == nil {
				reenc, err := m.Encode()
				if err != nil {
					t.Fatalf("decoded trace-dump-ack does not re-encode: %v", err)
				}
				var m2 TraceDumpAck
				if err := m2.Decode(reenc); err != nil {
					t.Fatalf("re-encoded trace-dump-ack does not decode: %v", err)
				}
				if m2.Process != m.Process || m2.EpochUnixNano != m.EpochUnixNano || len(m2.Spans) != len(m.Spans) {
					t.Fatal("trace-dump-ack not stable across re-encoding")
				}
			}
		}
	})
}

// FuzzControlFrame hits the fleet control-plane decoders below the framing
// layer: arbitrary payload bytes must never panic, and whatever decodes must
// re-encode to bytes that decode to the same value.
func FuzzControlFrame(f *testing.F) {
	seed := func(p []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	seed((&HealthProbe{Nonce: 1}).Encode())
	seed((&HealthAck{Nonce: 2, ActiveSessions: 1, Inflight: 3, Draining: true,
		Bootstraps: 7, MinHeadroom: 2, HeadroomKnown: true}).Encode())
	seed((&RegistrySync{Entries: []RegistryEntry{
		{Model: "LeNet-tiny", LogN: 13, Batch: 8},
		{Model: "SqueezeNet-CIFAR", LogN: 16, Batch: 1},
	}}).Encode())
	seed((&SessionHandoff{RouterSessionID: 3, Open: []byte("opaque keys")}).Encode())
	seed((&SessionHandoffAck{RouterSessionID: 3, WorkerSessionID: 4}).Encode())
	seed((&TraceDump{TraceID: 5}).Encode())
	seed((&TraceDumpAck{Process: "w", EpochUnixNano: 42, Spans: []telemetry.Span{
		{Kind: telemetry.KindOp, Op: "mul", Dur: time.Microsecond, TraceID: 5, SpanID: 6, Parent: 7},
		{Kind: telemetry.KindScope, Op: "request", Scope: "sess", TraceID: 5, SpanID: 7},
	}}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe HealthProbe
		_ = probe.Decode(data)
		var ack HealthAck
		if ack.Decode(data) == nil {
			reenc, err := ack.Encode()
			if err != nil {
				t.Fatalf("decoded health-ack does not re-encode: %v", err)
			}
			var again HealthAck
			if err := again.Decode(reenc); err != nil || again != ack {
				t.Fatalf("health-ack not stable: %v", err)
			}
		}
		var sync RegistrySync
		if sync.Decode(data) == nil {
			reenc, err := sync.Encode()
			if err != nil {
				t.Fatalf("decoded registry-sync does not re-encode: %v", err)
			}
			var again RegistrySync
			if err := again.Decode(reenc); err != nil {
				t.Fatalf("re-encoded registry-sync does not decode: %v", err)
			}
			if len(again.Entries) != len(sync.Entries) {
				t.Fatal("registry-sync entry count not stable across re-encoding")
			}
		}
		var ho SessionHandoff
		if ho.Decode(data) == nil {
			reenc, err := ho.Encode()
			if err != nil {
				t.Fatalf("decoded session-handoff does not re-encode: %v", err)
			}
			var again SessionHandoff
			if err := again.Decode(reenc); err != nil {
				t.Fatalf("re-encoded session-handoff does not decode: %v", err)
			}
		}
		var hoAck SessionHandoffAck
		_ = hoAck.Decode(data)
		var td TraceDump
		if td.Decode(data) == nil {
			reenc, err := td.Encode()
			if err != nil {
				t.Fatalf("decoded trace-dump does not re-encode: %v", err)
			}
			var again TraceDump
			if err := again.Decode(reenc); err != nil || again != td {
				t.Fatalf("trace-dump not stable: %v", err)
			}
		}
		var tda TraceDumpAck
		if tda.Decode(data) == nil {
			reenc, err := tda.Encode()
			if err != nil {
				t.Fatalf("decoded trace-dump-ack does not re-encode: %v", err)
			}
			var again TraceDumpAck
			if err := again.Decode(reenc); err != nil {
				t.Fatalf("re-encoded trace-dump-ack does not decode: %v", err)
			}
			if len(again.Spans) != len(tda.Spans) {
				t.Fatal("trace-dump-ack span count not stable across re-encoding")
			}
		}
	})
}

// FuzzDecodeCipherTensor hits the tensor codec below the message layer.
func FuzzDecodeCipherTensor(f *testing.F) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 4, LogQ: []int{30}, LogP: 30, LogScale: 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	b := hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(5)})
	ct := &htc.CipherTensor{
		Layout: htc.LayoutHW, C: 1, H: 2, W: 2,
		RowStride: 2, ColStride: 1, CPerCT: 1,
		CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{1, 2, 3, 4}, 1<<20))},
	}
	seed, err := EncodeCipherTensor(ct)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	bct := &htc.CipherTensor{
		Layout: htc.LayoutHW, C: 1, H: 1, W: 2,
		RowStride: 2, ColStride: 1, CPerCT: 1,
		B: 4, BatchStride: 4,
		CTs: []hisa.Ciphertext{b.Encrypt(b.Encode([]float64{1, 2}, 1<<20))},
	}
	bseed, err := EncodeCipherTensor(bct)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bseed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeCipherTensor(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same metadata.
		reenc, err := EncodeCipherTensor(got)
		if err != nil {
			t.Fatalf("decoded tensor does not re-encode: %v", err)
		}
		again, err := DecodeCipherTensor(reenc)
		if err != nil {
			t.Fatalf("re-encoded tensor does not decode: %v", err)
		}
		if again.C != got.C || again.H != got.H || again.W != got.W || len(again.CTs) != len(got.CTs) ||
			again.B != got.B || again.BatchStride != got.BatchStride {
			t.Fatal("metadata not stable across re-encoding")
		}
	})
}
