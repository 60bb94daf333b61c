package serve

import (
	"net"
	"strings"
	"testing"

	"chet/internal/wire"
)

// TestWorkerControlFrames drives the router-facing control plane against a
// live worker over one raw connection: health probe, registry sync, and an
// eval-key handoff whose admitted session then answers a relayed inference.
func TestWorkerControlFrames(t *testing.T) {
	comp := testCompiled(t)
	s, err := New(Config{Compiled: comp})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(mt wire.MsgType, m interface{ Encode() ([]byte, error) }, want wire.MsgType) []byte {
		t.Helper()
		p, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, mt, p); err != nil {
			t.Fatal(err)
		}
		got, resp, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			if got == wire.MsgError {
				var ef wire.ErrorFrame
				_ = ef.Decode(resp)
				t.Fatalf("wanted %v, got error frame: %s", want, ef.Message)
			}
			t.Fatalf("wanted %v frame, got %v", want, got)
		}
		return resp
	}

	// Health probe: the ack echoes the nonce and reports this worker's
	// fingerprint with nothing in flight.
	resp := roundTrip(wire.MsgHealthProbe, &wire.HealthProbe{Nonce: 99}, wire.MsgHealthAck)
	var ack wire.HealthAck
	if err := ack.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if ack.Nonce != 99 || ack.Fingerprint != s.fingerprint || ack.Draining || ack.Inflight != 0 {
		t.Fatalf("health ack %+v: want nonce 99, server fingerprint, not draining", ack)
	}

	// Registry sync: push a foreign model; the ack must hold the merged view
	// (the worker's own model plus the pushed one).
	foreign := wire.RegistryEntry{Model: "other-model", LogN: 13, Batch: 4}
	foreign.Fingerprint[0] = 0xEE
	resp = roundTrip(wire.MsgRegistrySync, &wire.RegistrySync{Entries: []wire.RegistryEntry{foreign}}, wire.MsgRegistrySyncAck)
	var sack wire.RegistrySyncAck
	if err := sack.Decode(resp); err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]bool{}
	for _, e := range sack.Entries {
		seen[e.Fingerprint] = true
	}
	if len(sack.Entries) != 2 || !seen[s.fingerprint] || !seen[foreign.Fingerprint] {
		t.Fatalf("sync ack entries %+v: want the worker's own model plus the pushed one", sack.Entries)
	}

	// Handoff: replay a real client's session-open payload. The worker must
	// admit it through the ordinary validation path and serve requests that
	// quote the worker-local ID from the ack.
	cli := dialClient(t, addr, comp, 77)
	open, err := (&wire.SessionOpen{
		Fingerprint: comp.Fingerprint(),
		Rotations:   cli.keys.Rotations,
		PK:          cli.keys.PK,
		RLK:         cli.keys.RLK,
		RTKS:        cli.keys.RTKS,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp = roundTrip(wire.MsgSessionHandoff, &wire.SessionHandoff{RouterSessionID: 424242, Open: open}, wire.MsgSessionHandoffAck)
	var hack wire.SessionHandoffAck
	if err := hack.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if hack.RouterSessionID != 424242 || hack.WorkerSessionID == 0 {
		t.Fatalf("handoff ack %+v: want router id echoed and a live worker session", hack)
	}

	// A frame of the retired single-image type (code 3) is answered as
	// unexpected, and the connection keeps serving.
	if err := wire.WriteFrame(conn, 3, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	tp, resp, err := wire.ReadFrame(conn, 0)
	var ef wire.ErrorFrame
	if err != nil || tp != wire.MsgError || ef.Decode(resp) != nil ||
		ef.Code != wire.CodeBadMessage || !strings.Contains(ef.Message, "unexpected") {
		t.Fatalf("retired frame type 3: got %v %+v (err %v), want an unexpected-frame %v", tp, ef, err, wire.CodeBadMessage)
	}

	enc := cli.Encrypt(randTensor([]int{1, 5, 5}, 1, 9))
	resp = roundTrip(wire.MsgInferBatchRequest, &wire.InferBatchRequest{
		SessionID: hack.WorkerSessionID, RequestID: 1, Count: 1, Tensor: enc,
	}, wire.MsgInferBatchResponse)
	var ir wire.InferBatchResponse
	if err := ir.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if ir.RequestID != 1 || ir.Count != 1 || ir.Tensor == nil {
		t.Fatalf("relayed inference response %+v: want request 1 with one image's tensor", ir)
	}

	m := s.Metrics()
	if m.Handoffs != 1 || m.HealthProbes != 1 || m.RegistrySyncs != 1 || m.RegistryModels != 2 {
		t.Fatalf("control-plane counters %+v: want 1 handoff, 1 probe, 1 sync, 2 registry models", m)
	}
}
