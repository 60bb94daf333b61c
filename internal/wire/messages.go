package wire

import (
	"fmt"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/htc"
)

// Sanity caps on adversarial counts, chosen far above anything the
// compiler produces but small enough that a lying prefix cannot drive
// pathological allocation.
const (
	maxRotations  = 1 << 16
	maxMessage    = 1 << 16 // error-message bytes
	maxBatchLanes = 1 << 12 // batch counts / lane indices on the wire
)

// ErrorCode classifies server-side failures on the wire.
type ErrorCode uint32

// The error codes a server may return.
const (
	// CodeBadMessage: the frame decoded but its contents are invalid.
	CodeBadMessage ErrorCode = 1 + iota
	// CodeFingerprintMismatch: client and server compiled different circuits.
	CodeFingerprintMismatch
	// CodeUnknownSession: the quoted session was never opened or has been
	// evicted; the client must re-open (re-upload keys).
	CodeUnknownSession
	// CodeQueueFull: the admission queue is at capacity (backpressure).
	CodeQueueFull
	// CodeDeadlineExceeded: the request missed its deadline in queue or
	// during evaluation.
	CodeDeadlineExceeded
	// CodeShuttingDown: the server is draining and accepts no new work.
	CodeShuttingDown
	// CodeInternal: the evaluation failed (malformed ciphertext, layout
	// mismatch, ...). The connection survives.
	CodeInternal
)

func (c ErrorCode) String() string {
	switch c {
	case CodeBadMessage:
		return "bad-message"
	case CodeFingerprintMismatch:
		return "fingerprint-mismatch"
	case CodeUnknownSession:
		return "unknown-session"
	case CodeQueueFull:
		return "queue-full"
	case CodeDeadlineExceeded:
		return "deadline-exceeded"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint32(c))
	}
}

// SessionOpen carries the client's public evaluation keys and the
// fingerprint of its compilation. Keys are uploaded once per session and
// cached server-side across requests.
type SessionOpen struct {
	Fingerprint [32]byte
	Rotations   []int // rotation amounts realized by RTKS
	PK          *ckks.PublicKey
	RLK         *ckks.RelinearizationKey
	RTKS        *ckks.RotationKeySet
}

// Encode serializes the message payload.
func (m *SessionOpen) Encode() ([]byte, error) {
	if m.PK == nil || m.RLK == nil || m.RTKS == nil {
		return nil, fmt.Errorf("wire: session-open requires pk, rlk, and rtks")
	}
	if len(m.Rotations) > maxRotations {
		return nil, fmt.Errorf("wire: %d rotations exceed cap %d", len(m.Rotations), maxRotations)
	}
	e := &enc{}
	e.buf = append(e.buf, m.Fingerprint[:]...)
	e.u32(uint32(len(m.Rotations)))
	for _, r := range m.Rotations {
		e.i64(r)
	}
	if err := e.marshalInto(m.PK); err != nil {
		return nil, err
	}
	if err := e.marshalInto(m.RLK); err != nil {
		return nil, err
	}
	if err := e.marshalInto(m.RTKS); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// SessionOpenSize is the exact payload size of the session-open a client
// whose backend is built from cfg sends: its rotation amounts and its keys,
// each cut at its planned level. Servers size their frame limit from it.
func SessionOpenSize(cfg hisa.RNSConfig) int {
	rotations := len(cfg.KeyShape().Rotations)
	pk, rlk, rtks := cfg.EvaluationKeySizes()
	return 32 + 4 + 8*rotations + (4 + pk) + (4 + rlk) + (4 + rtks)
}

// Decode parses a payload produced by Encode. All cryptographic material
// passes through the bounds-checked ckks unmarshalers.
func (m *SessionOpen) Decode(data []byte) error {
	d := &dec{buf: data}
	if len(data) < 32 {
		return fmt.Errorf("wire: session-open shorter than fingerprint")
	}
	copy(m.Fingerprint[:], data[:32])
	d.pos = 32
	n := int(d.u32())
	if d.err == nil && (n < 0 || n > maxRotations) {
		d.fail(fmt.Sprintf("implausible rotation count %d", n))
	}
	rots := make([]int, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		rots = append(rots, d.i64())
	}
	pkb, rlkb, rtksb := d.blob(), d.blob(), d.blob()
	if err := d.finish(); err != nil {
		return err
	}
	pk := &ckks.PublicKey{}
	if err := pk.UnmarshalBinary(pkb); err != nil {
		return fmt.Errorf("wire: session-open public key: %w", err)
	}
	rlk := &ckks.RelinearizationKey{}
	if err := rlk.UnmarshalBinary(rlkb); err != nil {
		return fmt.Errorf("wire: session-open relinearization key: %w", err)
	}
	rtks := &ckks.RotationKeySet{}
	if err := rtks.UnmarshalBinary(rtksb); err != nil {
		return fmt.Errorf("wire: session-open rotation keys: %w", err)
	}
	m.Rotations, m.PK, m.RLK, m.RTKS = rots, pk, rlk, rtks
	return nil
}

// SessionAccept acknowledges a session-open with the registry ID.
type SessionAccept struct {
	SessionID uint64
}

// Encode serializes the message payload.
func (m *SessionAccept) Encode() ([]byte, error) {
	e := &enc{}
	e.u64(m.SessionID)
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *SessionAccept) Decode(data []byte) error {
	d := &dec{buf: data}
	m.SessionID = d.u64()
	return d.finish()
}

// InferRequest asks the server to evaluate the compiled circuit on one
// encrypted input under an open session.
type InferRequest struct {
	SessionID uint64
	RequestID uint64
	// TraceID correlates this request with the server-side spans and batch
	// assignment it produces (logged and echoed in the response). Zero
	// means the client did not ask for correlation.
	TraceID uint64
	// ParentSpan is the span the receiver should parent its request scope
	// under: the client's call span, or — after a router rewrote the header
	// in flight — the router's relay span, which is what stitches router
	// and worker span trees into one trace. Zero means "no parent".
	ParentSpan uint64
	// TimeoutMillis caps this request's total latency (queue + execution).
	// Zero defers to the server's configured default.
	TimeoutMillis uint32
	Tensor        *htc.CipherTensor
}

// Encode serializes the message payload.
func (m *InferRequest) Encode() ([]byte, error) {
	e := &enc{}
	e.u64(m.SessionID)
	e.u64(m.RequestID)
	e.u64(m.TraceID)
	e.u64(m.ParentSpan)
	e.u32(m.TimeoutMillis)
	if err := encodeCipherTensor(e, m.Tensor); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *InferRequest) Decode(data []byte) error {
	d := &dec{buf: data}
	m.SessionID = d.u64()
	m.RequestID = d.u64()
	m.TraceID = d.u64()
	m.ParentSpan = d.u64()
	m.TimeoutMillis = d.u32()
	ct, err := decodeCipherTensor(d)
	if err != nil {
		return err
	}
	if err := d.finish(); err != nil {
		return err
	}
	m.Tensor = ct
	return nil
}

// InferResponse returns the encrypted prediction for one request. When the
// server coalesced the request into a batch, Batch carries the number of
// co-packed requests and Lane the slot lane holding this request's
// prediction; the client extracts its lane before decrypting. Batch <= 1
// means the prediction occupies lane 0 (the unbatched wire shape).
type InferResponse struct {
	RequestID uint64
	// TraceID echoes the request's trace ID.
	TraceID uint64
	Batch   uint32
	Lane    uint32
	Tensor  *htc.CipherTensor
}

// Encode serializes the message payload.
func (m *InferResponse) Encode() ([]byte, error) {
	if m.Batch > maxBatchLanes || m.Lane >= maxBatchLanes {
		return nil, fmt.Errorf("wire: infer-response batch %d / lane %d exceed cap %d",
			m.Batch, m.Lane, maxBatchLanes)
	}
	e := &enc{}
	e.u64(m.RequestID)
	e.u64(m.TraceID)
	e.u32(m.Batch)
	e.u32(m.Lane)
	if err := encodeCipherTensor(e, m.Tensor); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *InferResponse) Decode(data []byte) error {
	d := &dec{buf: data}
	m.RequestID = d.u64()
	m.TraceID = d.u64()
	batch := d.u32()
	lane := d.u32()
	if d.err == nil && (batch > maxBatchLanes || lane >= maxBatchLanes) {
		d.fail(fmt.Sprintf("implausible batch %d / lane %d", batch, lane))
	}
	if d.err == nil && batch > 1 && lane >= batch {
		d.fail(fmt.Sprintf("lane %d outside batch %d", lane, batch))
	}
	ct, err := decodeCipherTensor(d)
	if err != nil {
		return err
	}
	if err := d.finish(); err != nil {
		return err
	}
	m.Batch, m.Lane, m.Tensor = batch, lane, ct
	return nil
}

// InferBatchRequest asks the server to evaluate the compiled circuit on a
// tensor the client already packed with Count images in its leading batch
// lanes. Count must not exceed the tensor's compiled batch capacity; the
// server answers with one InferBatchResponse (or an ErrorFrame).
type InferBatchRequest struct {
	SessionID uint64
	RequestID uint64
	// TraceID correlates this request with its server-side spans in logs
	// and traces; echoed in the response. Zero disables correlation.
	TraceID uint64
	// ParentSpan parents the receiver's request scope (see
	// InferRequest.ParentSpan); routers rewrite it in flight.
	ParentSpan uint64
	// TimeoutMillis caps this request's total latency (queue + execution).
	// Zero defers to the server's configured default.
	TimeoutMillis uint32
	// Count is the number of occupied batch lanes (>= 1).
	Count  uint32
	Tensor *htc.CipherTensor
}

// Encode serializes the message payload.
func (m *InferBatchRequest) Encode() ([]byte, error) {
	if m.Count < 1 || m.Count > maxBatchLanes {
		return nil, fmt.Errorf("wire: infer-batch-request count %d outside [1, %d]", m.Count, maxBatchLanes)
	}
	e := &enc{}
	e.u64(m.SessionID)
	e.u64(m.RequestID)
	e.u64(m.TraceID)
	e.u64(m.ParentSpan)
	e.u32(m.TimeoutMillis)
	e.u32(m.Count)
	if err := encodeCipherTensor(e, m.Tensor); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *InferBatchRequest) Decode(data []byte) error {
	d := &dec{buf: data}
	m.SessionID = d.u64()
	m.RequestID = d.u64()
	m.TraceID = d.u64()
	m.ParentSpan = d.u64()
	m.TimeoutMillis = d.u32()
	count := d.u32()
	if d.err == nil && (count < 1 || count > maxBatchLanes) {
		d.fail(fmt.Sprintf("implausible batch count %d", count))
	}
	ct, err := decodeCipherTensor(d)
	if err != nil {
		return err
	}
	if err := d.finish(); err != nil {
		return err
	}
	if int(count) > ct.Batches() {
		return fmt.Errorf("wire: infer-batch-request count %d exceeds tensor batch capacity %d",
			count, ct.Batches())
	}
	m.Count, m.Tensor = count, ct
	return nil
}

// InferBatchResponse returns the encrypted predictions of a batched
// request: one tensor whose leading Count lanes hold the per-image outputs.
type InferBatchResponse struct {
	RequestID uint64
	// TraceID echoes the request's trace ID.
	TraceID uint64
	Count   uint32
	Tensor  *htc.CipherTensor
}

// Encode serializes the message payload.
func (m *InferBatchResponse) Encode() ([]byte, error) {
	if m.Count < 1 || m.Count > maxBatchLanes {
		return nil, fmt.Errorf("wire: infer-batch-response count %d outside [1, %d]", m.Count, maxBatchLanes)
	}
	e := &enc{}
	e.u64(m.RequestID)
	e.u64(m.TraceID)
	e.u32(m.Count)
	if err := encodeCipherTensor(e, m.Tensor); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *InferBatchResponse) Decode(data []byte) error {
	d := &dec{buf: data}
	m.RequestID = d.u64()
	m.TraceID = d.u64()
	count := d.u32()
	if d.err == nil && (count < 1 || count > maxBatchLanes) {
		d.fail(fmt.Sprintf("implausible batch count %d", count))
	}
	ct, err := decodeCipherTensor(d)
	if err != nil {
		return err
	}
	if err := d.finish(); err != nil {
		return err
	}
	if int(count) > ct.Batches() {
		return fmt.Errorf("wire: infer-batch-response count %d exceeds tensor batch capacity %d",
			count, ct.Batches())
	}
	m.Count, m.Tensor = count, ct
	return nil
}

// ErrorFrame reports a failure. RequestID is zero for connection-level
// failures (e.g. a rejected session-open).
type ErrorFrame struct {
	Code      ErrorCode
	RequestID uint64
	Message   string
}

// Error renders the frame as a Go error string.
func (m *ErrorFrame) Error() string {
	return fmt.Sprintf("server error %v: %s", m.Code, m.Message)
}

// Encode serializes the message payload.
func (m *ErrorFrame) Encode() ([]byte, error) {
	msg := m.Message
	if len(msg) > maxMessage {
		msg = msg[:maxMessage]
	}
	e := &enc{}
	e.u32(uint32(m.Code))
	e.u64(m.RequestID)
	e.blob([]byte(msg))
	return e.buf, nil
}

// Decode parses a payload produced by Encode.
func (m *ErrorFrame) Decode(data []byte) error {
	d := &dec{buf: data}
	code := ErrorCode(d.u32())
	req := d.u64()
	msg := d.blob()
	if d.err == nil && len(msg) > maxMessage {
		d.fail(fmt.Sprintf("error message of %d bytes exceeds cap", len(msg)))
	}
	if err := d.finish(); err != nil {
		return err
	}
	m.Code, m.RequestID, m.Message = code, req, string(msg)
	return nil
}
