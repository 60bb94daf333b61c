package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestHealthProbeRoundTrip(t *testing.T) {
	in := &HealthProbe{Nonce: 0xDEADBEEFCAFEF00D}
	p, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out HealthProbe
	if err := out.Decode(p); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("round trip: got %+v, want %+v", out, *in)
	}
}

func TestHealthAckRoundTrip(t *testing.T) {
	in := &HealthAck{Nonce: 7, ActiveSessions: 3, Inflight: 11, Draining: true}
	for i := range in.Fingerprint {
		in.Fingerprint[i] = byte(i * 7)
	}
	p, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out HealthAck
	if err := out.Decode(p); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("round trip: got %+v, want %+v", out, *in)
	}
	// A non-boolean draining byte is rejected, not silently truthy.
	p[len(p)-1] = 2
	if err := out.Decode(p); err == nil {
		t.Fatal("expected an error for draining byte 2")
	}
}

func TestRegistrySyncRoundTrip(t *testing.T) {
	in := &RegistrySync{Entries: []RegistryEntry{
		{Model: "LeNet-tiny", LogN: 13, Batch: 8},
		{Model: "SqueezeNet-CIFAR", LogN: 16, Batch: 1},
	}}
	in.Entries[0].Fingerprint[0] = 0xAA
	in.Entries[1].Fingerprint[31] = 0xBB
	p, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out RegistrySync
	if err := out.Decode(p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Entries, in.Entries) {
		t.Fatalf("round trip: got %+v, want %+v", out.Entries, in.Entries)
	}

	var ack RegistrySyncAck
	if err := ack.Decode(p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ack.Entries, in.Entries) {
		t.Fatal("ack decoder disagrees with sync decoder on identical bytes")
	}

	// Empty registries are legal (a cold router syncing before any worker
	// has answered).
	p, err = (&RegistrySync{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Decode(p); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 0 {
		t.Fatalf("empty registry decoded to %d entries", len(out.Entries))
	}
}

// TestRegistryReplicasSerializeAlike merges the same entries into two
// replicas in opposite orders: the snapshots are fingerprint-ordered and
// encode to the same bytes, and Merge counts only unknown fingerprints.
func TestRegistryReplicasSerializeAlike(t *testing.T) {
	entries := make([]RegistryEntry, 5)
	for i := range entries {
		entries[i].Fingerprint[0] = byte(7 * (5 - i))
		entries[i].Model = string(rune('a' + i))
	}
	a, b := NewRegistry(), NewRegistry()
	if n := a.Merge(entries); n != 5 {
		t.Fatalf("first merge added %d, want 5", n)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		b.Merge(entries[i : i+1])
	}
	if n := b.Merge(entries[:2]); n != 0 || b.Size() != 5 || !b.Has(entries[3].Fingerprint) {
		t.Fatalf("re-merge added %d, size %d", n, b.Size())
	}
	pa, err := (&RegistrySync{Entries: a.Snapshot()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := (&RegistrySync{Entries: b.Snapshot()}).Encode()
	if !bytes.Equal(pa, pb) {
		t.Fatal("replicas with the same entries serialize differently")
	}
	snap := a.Snapshot()
	for i := 1; i < len(snap); i++ {
		if bytes.Compare(snap[i-1].Fingerprint[:], snap[i].Fingerprint[:]) >= 0 {
			t.Fatalf("snapshot not in fingerprint order at %d", i)
		}
	}
}

func TestRegistrySyncRejectsOversize(t *testing.T) {
	long := make([]byte, maxModelName+1)
	in := &RegistrySync{Entries: []RegistryEntry{{Model: string(long)}}}
	if _, err := in.Encode(); err == nil {
		t.Fatal("expected an error for an oversized model name")
	}
	entries := make([]RegistryEntry, maxRegistryEntries+1)
	if _, err := (&RegistrySync{Entries: entries}).Encode(); err == nil {
		t.Fatal("expected an error for too many entries")
	}
}

func TestSessionHandoffRoundTrip(t *testing.T) {
	in := &SessionHandoff{RouterSessionID: 42, Open: []byte{1, 2, 3, 4, 5}}
	p, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out SessionHandoff
	if err := out.Decode(p); err != nil {
		t.Fatal(err)
	}
	if out.RouterSessionID != in.RouterSessionID || !bytes.Equal(out.Open, in.Open) {
		t.Fatalf("round trip: got %+v, want %+v", out, *in)
	}

	ackIn := &SessionHandoffAck{RouterSessionID: 42, WorkerSessionID: 9}
	p, err = ackIn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var ackOut SessionHandoffAck
	if err := ackOut.Decode(p); err != nil {
		t.Fatal(err)
	}
	if ackOut != *ackIn {
		t.Fatalf("ack round trip: got %+v, want %+v", ackOut, *ackIn)
	}
}

func TestControlFramesOverFraming(t *testing.T) {
	// A full control exchange over the frame layer: probe, ack, sync,
	// handoff — each frame decodes back to what was written.
	var buf bytes.Buffer
	write := func(mt MsgType, m interface{ Encode() ([]byte, error) }) {
		t.Helper()
		p, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&buf, mt, p); err != nil {
			t.Fatal(err)
		}
	}
	write(MsgHealthProbe, &HealthProbe{Nonce: 1})
	write(MsgHealthAck, &HealthAck{Nonce: 1, ActiveSessions: 2})
	write(MsgRegistrySync, &RegistrySync{Entries: []RegistryEntry{{Model: "m", LogN: 11, Batch: 2}}})
	write(MsgSessionHandoff, &SessionHandoff{RouterSessionID: 5, Open: []byte("keys")})
	write(MsgSessionHandoffAck, &SessionHandoffAck{RouterSessionID: 5, WorkerSessionID: 6})

	wantTypes := []MsgType{MsgHealthProbe, MsgHealthAck, MsgRegistrySync, MsgSessionHandoff, MsgSessionHandoffAck}
	for _, want := range wantTypes {
		mt, _, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("reading %v frame: %v", want, err)
		}
		if mt != want {
			t.Fatalf("frame type %v, want %v", mt, want)
		}
	}
}
