// Package wire defines the versioned binary framing protocol of the CHET
// serving subsystem: the bytes a client and an inference server exchange in
// the paper's deployment model (Figure 3). A connection carries a sequence
// of length-prefixed frames; each frame has a fixed 12-byte header and a
// typed payload encoded with the bounds-checked codecs in this package,
// which reuse the ckks MarshalBinary/UnmarshalBinary formats for all
// cryptographic material.
//
// Frame header (little-endian):
//
//	offset  size  field
//	0       4     magic   0xC4E75EF1
//	4       1     version (currently 6)
//	5       1     type    (MsgType)
//	6       2     flags   (reserved, must be zero)
//	8       4     payload length in bytes
//
// Every decoder in this package is total: corrupted, truncated, or
// adversarial bytes yield an error, never a panic, and oversized frames are
// rejected from the header alone before any payload allocation.
//
// The package also holds the mechanism both serving processes share: the
// worker and the router serve through one Endpoint, every decoded
// request/response exchange is one Call, and both keep their sessions in a
// SessionTable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// FrameMagic begins every frame.
	FrameMagic uint32 = 0xC4E75EF1
	// Version is the protocol version this package speaks: only version 6
	// is accepted, every other peer is rejected at the header.
	Version byte = 6
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 12
	// DefaultMaxFrame bounds a frame's payload when the caller does not
	// choose a limit. Rotation-key sets dominate: at logN 16 a full CHET
	// key set runs to hundreds of megabytes, so the default is generous.
	DefaultMaxFrame = 1 << 30
)

// MsgType identifies a frame's payload.
type MsgType uint8

// The frame types of the serving protocol. Codes are pinned: code 3 (the
// single-image infer request) and code 4 (its response) are retired — an
// inference is one MsgInferBatchRequest of k >= 1 client-packed images — and
// a peer that still sends them is answered with an unexpected-frame error.
const (
	// MsgSessionOpen (client → server): evaluation keys plus the compiled
	// circuit fingerprint.
	MsgSessionOpen MsgType = 1
	// MsgSessionAccept (server → client): the session ID to quote on
	// subsequent requests.
	MsgSessionAccept MsgType = 2
	// MsgError (server → client): a typed failure for one request or for
	// the connection.
	MsgError MsgType = 5
	// MsgInferBatchRequest (client → server): one tensor carrying k >= 1
	// images packed into its leading batch lanes, evaluated as one request.
	MsgInferBatchRequest MsgType = 6
	// MsgInferBatchResponse (server → client): the encrypted predictions of
	// a request, one per occupied lane.
	MsgInferBatchResponse MsgType = 7
	// MsgHealthProbe (router → worker): a liveness/readiness probe.
	MsgHealthProbe MsgType = 8
	// MsgHealthAck (worker → router): the probe echo plus worker status.
	MsgHealthAck MsgType = 9
	// MsgRegistrySync (router → worker): the router's replicated
	// compiled-model registry, pushed so every worker holds a copy.
	MsgRegistrySync MsgType = 10
	// MsgRegistrySyncAck (worker → router): the models this worker serves,
	// merged into the router's registry.
	MsgRegistrySyncAck MsgType = 11
	// MsgSessionHandoff (router → worker): a session's evaluation-key
	// frames replayed to a (possibly new) owner worker.
	MsgSessionHandoff MsgType = 12
	// MsgSessionHandoffAck (worker → router): the worker-local session ID
	// the handed-off session evaluates under.
	MsgSessionHandoffAck MsgType = 13
	// MsgTraceDump (router → worker): ask for the worker's retained spans,
	// optionally filtered to one trace ID.
	MsgTraceDump MsgType = 14
	// MsgTraceDumpAck (worker → router): the worker's span ring plus the
	// epoch its span offsets measure from, ready to merge into a
	// cross-process trace.
	MsgTraceDumpAck MsgType = 15
)

func (t MsgType) String() string {
	switch t {
	case MsgSessionOpen:
		return "session-open"
	case MsgSessionAccept:
		return "session-accept"
	case MsgError:
		return "error"
	case MsgInferBatchRequest:
		return "infer-batch-request"
	case MsgInferBatchResponse:
		return "infer-batch-response"
	case MsgHealthProbe:
		return "health-probe"
	case MsgHealthAck:
		return "health-ack"
	case MsgRegistrySync:
		return "registry-sync"
	case MsgRegistrySyncAck:
		return "registry-sync-ack"
	case MsgSessionHandoff:
		return "session-handoff"
	case MsgSessionHandoffAck:
		return "session-handoff-ack"
	case MsgTraceDump:
		return "trace-dump"
	case MsgTraceDumpAck:
		return "trace-dump-ack"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Sentinel errors a frame reader can classify on.
var (
	// ErrBadFrame marks a malformed header (magic, version, flags, type).
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrFrameTooLarge marks a header whose payload exceeds the cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
)

// WriteFrame writes one frame. It performs exactly two writes (header,
// payload), so callers serializing access to w get atomic frames.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], FrameMagic)
	hdr[4] = Version
	hdr[5] = byte(t)
	binary.LittleEndian.PutUint16(hdr[6:], 0)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, rejecting malformed headers and payloads
// larger than maxFrame (0 selects DefaultMaxFrame). io.EOF is returned
// verbatim when the stream ends cleanly between frames. An oversized frame
// is refused from the header alone — ErrFrameTooLarge comes back with the
// frame's type and nothing of its payload read or allocated.
func ReadFrame(r io.Reader, maxFrame int) (MsgType, []byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != FrameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic 0x%08x", ErrBadFrame, m)
	}
	if v := hdr[4]; v != Version {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	// The retired codes inside the range pass framing; endpoints answer them
	// as unexpected frames and the connection survives.
	t := MsgType(hdr[5])
	if t < MsgSessionOpen || t > MsgTraceDumpAck {
		return 0, nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, hdr[5])
	}
	if f := binary.LittleEndian.Uint16(hdr[6:]); f != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero reserved flags 0x%04x", ErrBadFrame, f)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if int64(n) > int64(maxFrame) {
		return t, nil, fmt.Errorf("%w: payload %d > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return t, payload, nil
}

// --- bounds-checked payload codecs ---

// enc is an append-only payload builder.
type enc struct{ buf []byte }

func (e *enc) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int)     { e.u64(uint64(int64(v))) }
func (e *enc) blob(b []byte) { e.u32(uint32(len(b))); e.buf = append(e.buf, b...) }

// marshalInto appends m's binary form as a length-prefixed blob.
func (e *enc) marshalInto(m interface{ MarshalBinary() ([]byte, error) }) error {
	b, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	e.blob(b)
	return nil
}

// dec is a bounds-checked payload cursor: the first failure latches and
// every subsequent read returns a zero value, so decoders can run straight
// through and check the error once.
type dec struct {
	buf []byte
	pos int
	err error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: decode: %s at offset %d", msg, d.pos)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.pos+1 > len(d.buf) {
		d.fail("truncated u8")
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.pos+4 > len(d.buf) {
		d.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *dec) i64() int { return int(int64(d.u64())) }

// blob reads a length-prefixed byte section. The length is validated
// against the remaining buffer before any allocation, so a lying prefix
// cannot trigger a huge make.
func (d *dec) blob() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.fail(fmt.Sprintf("blob length %d exceeds remaining %d bytes", n, len(d.buf)-d.pos))
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("wire: decode: %d trailing bytes", len(d.buf)-d.pos)
	}
	return nil
}
