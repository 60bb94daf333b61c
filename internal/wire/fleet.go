package wire

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
)

// Fleet control-plane messages: the frames a router tier exchanges with its
// chet-serve workers. They ride the same versioned framing as the inference
// frames; every decoder here is total over adversarial bytes (see the fuzz
// targets), because a router must survive a byzantine worker and vice versa.

// Sanity caps on the control-plane payloads.
const (
	// maxRegistryEntries bounds a registry-sync frame. A fleet serves a
	// handful of compiled models, not thousands; a lying count cannot drive
	// pathological allocation.
	maxRegistryEntries = 1 << 12
	// maxModelName bounds a registry entry's model-name bytes.
	maxModelName = 1 << 8
)

// RegistryEntry describes one compiled model in the replicated registry,
// keyed by the compilation fingerprint that the session-open handshake
// quotes. LogN and Batch are the compiled ring degree (log2) and batch
// capacity — enough for a router to admission-check a handshake without
// holding the compiled circuit itself.
type RegistryEntry struct {
	Fingerprint [32]byte
	Model       string
	LogN        uint32
	Batch       uint32
}

// Registry is one process's replica of the fleet-wide compiled-model
// registry, keyed by compilation fingerprint. The router pushes its merged
// view to every worker on each probe cycle and merges each worker's ack back
// in, so any single surviving process — router or worker — can rebuild the
// full view. Fingerprints are content hashes of the compilation, so two
// entries with the same key describe the same model and last-writer-wins is
// safe. It is safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[[32]byte]RegistryEntry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[[32]byte]RegistryEntry{}}
}

// Merge folds entries in, returning how many were previously unknown.
func (r *Registry) Merge(entries []RegistryEntry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	added := 0
	for _, e := range entries {
		if _, ok := r.entries[e.Fingerprint]; !ok {
			added++
		}
		r.entries[e.Fingerprint] = e
	}
	return added
}

// Has reports whether a fingerprint is a known compiled model.
func (r *Registry) Has(fp [32]byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[fp]
	return ok
}

// Size returns the number of known models.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot returns the entries sorted by fingerprint, so two replicas with
// the same contents serialize identically byte for byte, whatever order they
// merged in.
func (r *Registry) Snapshot() []RegistryEntry {
	r.mu.Lock()
	out := make([]RegistryEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b RegistryEntry) int { return bytes.Compare(a.Fingerprint[:], b.Fingerprint[:]) })
	return out
}

func (e *RegistryEntry) encode(enc *enc) error {
	if len(e.Model) > maxModelName {
		return fmt.Errorf("wire: registry entry model name of %d bytes exceeds cap %d", len(e.Model), maxModelName)
	}
	enc.buf = append(enc.buf, e.Fingerprint[:]...)
	enc.blob([]byte(e.Model))
	enc.u32(e.LogN)
	enc.u32(e.Batch)
	return nil
}

func decodeRegistryEntry(d *dec) (e RegistryEntry) {
	if d.err == nil && d.pos+32 > len(d.buf) {
		d.fail("truncated registry-entry fingerprint")
		return
	}
	if d.err != nil {
		return
	}
	copy(e.Fingerprint[:], d.buf[d.pos:d.pos+32])
	d.pos += 32
	name := d.blob()
	if d.err == nil && len(name) > maxModelName {
		d.fail(fmt.Sprintf("registry entry model name of %d bytes exceeds cap", len(name)))
		return
	}
	e.Model = string(name)
	e.LogN = d.u32()
	e.Batch = d.u32()
	return
}

// encodeEntries serializes a count-prefixed entry list.
func encodeEntries(entries []RegistryEntry) ([]byte, error) {
	if len(entries) > maxRegistryEntries {
		return nil, fmt.Errorf("wire: %d registry entries exceed cap %d", len(entries), maxRegistryEntries)
	}
	e := &enc{}
	e.u32(uint32(len(entries)))
	for i := range entries {
		if err := entries[i].encode(e); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

// decodeEntries parses a count-prefixed entry list.
func decodeEntries(data []byte) ([]RegistryEntry, error) {
	d := &dec{buf: data}
	n := int(d.u32())
	if d.err == nil && (n < 0 || n > maxRegistryEntries) {
		d.fail(fmt.Sprintf("implausible registry entry count %d", n))
	}
	entries := make([]RegistryEntry, 0, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		entries = append(entries, decodeRegistryEntry(d))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return entries, nil
}

// HealthProbe asks a worker whether it is alive and accepting work. The
// nonce is echoed in the ack so a router matching probes to responses over a
// reused connection cannot be confused by a stale reply.
type HealthProbe struct {
	Nonce uint64
}

// Encode serializes the message payload.
func (m *HealthProbe) Encode() ([]byte, error) {
	e := &enc{}
	e.u64(m.Nonce)
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *HealthProbe) Decode(data []byte) error {
	d := &dec{buf: data}
	m.Nonce = d.u64()
	return d.finish()
}

// HealthAck reports a worker's status: the compiled-model fingerprint it
// serves, its live session count, the requests currently in flight, and
// whether it is draining (a draining worker finishes admitted work but
// rejects new requests — a router must stop routing to it). Since protocol
// version 5 it also carries the worker's ciphertext-budget telemetry, so
// the router's /metrics can export fleet-wide refresh pressure without a
// second scrape path.
type HealthAck struct {
	Nonce          uint64
	Fingerprint    [32]byte
	ActiveSessions uint32
	Inflight       uint32
	Draining       bool
	// Bootstraps is the worker's cumulative bootstrap tally across all
	// sessions (the program's bootstrap instructions, as the Meter counts
	// them).
	Bootstraps uint64
	// MinHeadroom is the served program's low-water mark of remaining
	// levels above the refresh floor (its compiler's plan), valid only when
	// HeadroomKnown (no session has run yet otherwise). Zero or negative
	// means a refresh fired.
	MinHeadroom   int64
	HeadroomKnown bool
}

// Encode serializes the message payload.
func (m *HealthAck) Encode() ([]byte, error) {
	e := &enc{}
	e.u64(m.Nonce)
	e.buf = append(e.buf, m.Fingerprint[:]...)
	e.u32(m.ActiveSessions)
	e.u32(m.Inflight)
	if m.Draining {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(m.Bootstraps)
	e.u64(uint64(m.MinHeadroom))
	if m.HeadroomKnown {
		e.u8(1)
	} else {
		e.u8(0)
	}
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *HealthAck) Decode(data []byte) error {
	d := &dec{buf: data}
	nonce := d.u64()
	var fp [32]byte
	if d.err == nil && d.pos+32 > len(d.buf) {
		d.fail("truncated health-ack fingerprint")
	}
	if d.err == nil {
		copy(fp[:], d.buf[d.pos:d.pos+32])
		d.pos += 32
	}
	active := d.u32()
	inflight := d.u32()
	draining := d.u8()
	if d.err == nil && draining > 1 {
		d.fail(fmt.Sprintf("non-boolean draining byte %d", draining))
	}
	boots := d.u64()
	headroom := int64(d.u64())
	known := d.u8()
	if d.err == nil && known > 1 {
		d.fail(fmt.Sprintf("non-boolean headroom-known byte %d", known))
	}
	if err := d.finish(); err != nil {
		return err
	}
	m.Nonce, m.Fingerprint = nonce, fp
	m.ActiveSessions, m.Inflight, m.Draining = active, inflight, draining == 1
	m.Bootstraps, m.MinHeadroom, m.HeadroomKnown = boots, headroom, known == 1
	return nil
}

// RegistrySync carries the router's merged view of the compiled-model
// registry, pushed to every worker so the registry is replicated across the
// fleet (a restarted router can rebuild it from any worker's ack).
type RegistrySync struct {
	Entries []RegistryEntry
}

// Encode serializes the message payload.
func (m *RegistrySync) Encode() ([]byte, error) { return encodeEntries(m.Entries) }

// Decode parses a payload produced by Encode.
func (m *RegistrySync) Decode(data []byte) error {
	entries, err := decodeEntries(data)
	if err != nil {
		return err
	}
	m.Entries = entries
	return nil
}

// RegistrySyncAck answers a RegistrySync with the models this worker serves.
type RegistrySyncAck struct {
	Entries []RegistryEntry
}

// Encode serializes the message payload.
func (m *RegistrySyncAck) Encode() ([]byte, error) { return encodeEntries(m.Entries) }

// Decode parses a payload produced by Encode.
func (m *RegistrySyncAck) Decode(data []byte) error {
	entries, err := decodeEntries(data)
	if err != nil {
		return err
	}
	m.Entries = entries
	return nil
}

// SessionHandoff replays a session's evaluation-key frames to a worker. The
// router stores the raw session-open payload a client uploaded once and
// replays it whenever the session's owner changes (a worker died, or the
// ring rebalanced after a join), so placement changes cost one key transfer
// instead of a client-visible failure. Open is an opaque SessionOpen payload;
// the worker runs it through the ordinary bounds-checked decoder.
type SessionHandoff struct {
	// RouterSessionID is the router-scoped session being handed off; echoed
	// in the ack so the router can match responses on a shared connection.
	RouterSessionID uint64
	// Open is the session's original session-open payload (fingerprint,
	// rotation amounts, public evaluation keys).
	Open []byte
}

// Encode serializes the message payload.
func (m *SessionHandoff) Encode() ([]byte, error) {
	e := &enc{}
	e.u64(m.RouterSessionID)
	e.blob(m.Open)
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *SessionHandoff) Decode(data []byte) error {
	d := &dec{buf: data}
	id := d.u64()
	open := d.blob()
	if err := d.finish(); err != nil {
		return err
	}
	m.RouterSessionID, m.Open = id, open
	return nil
}

// SessionHandoffAck acknowledges a handoff with the worker-local session ID
// the router must quote on relayed requests for this session.
type SessionHandoffAck struct {
	RouterSessionID uint64
	WorkerSessionID uint64
}

// Encode serializes the message payload.
func (m *SessionHandoffAck) Encode() ([]byte, error) {
	e := &enc{}
	e.u64(m.RouterSessionID)
	e.u64(m.WorkerSessionID)
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *SessionHandoffAck) Decode(data []byte) error {
	d := &dec{buf: data}
	m.RouterSessionID = d.u64()
	m.WorkerSessionID = d.u64()
	return d.finish()
}
