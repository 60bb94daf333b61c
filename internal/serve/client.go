package serve

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/ring"
	"chet/internal/telemetry"
	"chet/internal/tensor"
	"chet/internal/wire"
)

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Compiled is the client-side compile of the same model with the same
	// options as the server; the session-open handshake enforces agreement
	// via the circuit fingerprint. Required; must target core.SchemeRNS.
	Compiled *core.Compiled
	// PRNG seeds key generation and encryption. Nil selects crypto/rand.
	PRNG ring.PRNG
	// Timeout is the per-request deadline sent with every inference.
	// Zero defers to the server's default.
	Timeout time.Duration
	// MaxFrame bounds accepted response frames. The default is sized from the
	// compiled model, exactly as the server's (see frameLimit).
	MaxFrame int
	// Redial bounds reconnect-with-backoff on transient transport failures
	// (refused dials, connections cut mid-request). The zero value disables
	// reconnection: transport errors surface immediately, the pre-fleet
	// behavior. Only clients created with Dial can redial (they know the
	// address); wire-level error frames are never retried — the server
	// answered, so the transport is fine and the failure is real.
	Redial RedialPolicy
	// TraceBase, when nonzero, overrides the random per-stream trace-ID
	// prefix: request n is sent with trace ID TraceBase+n. Tests use it to
	// know a request's trace ID before sending, so they can pull the exact
	// trace back out of the fleet afterwards.
	TraceBase uint64
}

// RedialPolicy bounds a client's reconnect behavior.
type RedialPolicy struct {
	// Attempts is the maximum number of reconnects tried per operation
	// before the transport error is surfaced. Zero disables redialing.
	Attempts int
	// Backoff is the delay before the first reconnect; it doubles after
	// each failed attempt. Zero retries immediately.
	Backoff time.Duration
}

// Client is the trusting side of the deployment model: it holds the secret
// key, encrypts inputs, ships public evaluation keys plus ciphertexts to an
// untrusted server, and decrypts the encrypted predictions that come back.
// Methods are safe for concurrent use; requests on one client serialize
// over its single connection (open more clients for parallel streams).
type Client struct {
	cfg     ClientConfig
	backend *hisa.RNSBackend
	keys    hisa.RNSPublicKeys
	plan    htc.Plan
	addr    string // set by Dial; empty for NewClient-wrapped connections

	// traceBase is this stream's random trace-ID prefix: request n is sent
	// with trace ID traceBase+n, so server-side span scopes and dispatch
	// logs correlate to a specific client stream without coordination.
	traceBase uint64

	mu        sync.Mutex
	conn      net.Conn
	sessionID uint64
	nextReq   uint64
}

// newTraceBase draws a random 64-bit stream prefix with the low 20 bits
// cleared, leaving a million request IDs before two streams could collide.
func newTraceBase() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0 // trace IDs degrade to the bare request counter
	}
	return binary.LittleEndian.Uint64(b[:]) &^ ((1 << 20) - 1)
}

// Dial connects to addr and opens a session (uploading the evaluation keys).
// With a RedialPolicy configured, transient dial and handshake failures are
// retried with exponential backoff; a server-sent error frame (fingerprint
// mismatch, draining) came from a live server, so retrying cannot help and
// it is surfaced immediately.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	backoff := cfg.Redial.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > cfg.Redial.Attempts {
				return nil, lastErr
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = fmt.Errorf("serve: dial %s: %w", addr, err)
			continue
		}
		c, err := NewClient(conn, cfg)
		if err != nil {
			conn.Close()
			var ef *wire.ErrorFrame
			if errors.As(err, &ef) {
				return nil, err
			}
			lastErr = err
			continue
		}
		c.addr = addr
		return c, nil
	}
}

// NewStream opens an additional connection that shares this client's keys
// and server-side session. Requests on one Client serialize over its single
// connection, so a tenant that wants the server to coalesce its requests
// into one batched evaluation needs several in flight at once — one stream
// per concurrent request. Streams skip the session handshake entirely (the
// server's registry is keyed by session ID, not connection); only clients
// created with Dial can open them. Close each stream independently.
func (c *Client) NewStream() (*Client, error) {
	c.mu.Lock()
	addr, sessID := c.addr, c.sessionID
	c.mu.Unlock()
	if addr == "" {
		return nil, errors.New("serve: NewStream requires a client created with Dial")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{
		cfg:       c.cfg,
		backend:   c.backend,
		keys:      c.keys,
		plan:      c.plan,
		addr:      addr,
		traceBase: newTraceBase(),
		conn:      conn,
		sessionID: sessID,
	}, nil
}

// NewClient wraps an established connection: it generates this client's
// keys locally and performs the session-open handshake.
func NewClient(conn net.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.Compiled == nil {
		return nil, errors.New("serve: ClientConfig.Compiled is required")
	}
	if cfg.Compiled.Options.Scheme != core.SchemeRNS {
		return nil, fmt.Errorf("serve: scheme %v has no transferable keys; compile for core.SchemeRNS",
			cfg.Compiled.Options.Scheme)
	}
	params, err := core.RNSParameters(cfg.Compiled)
	if err != nil {
		return nil, err
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = frameLimit(cfg.Compiled, params)
	}
	// The keys are cut where the compiler's key plan says; a
	// bootstrap-compiled circuit is evaluated on the server through the
	// refresh pipeline, so the key set also carries the pipeline's keys, or
	// the handed-off keys could not bootstrap.
	rnsCfg := cfg.Compiled.KeyConfig(params)
	rnsCfg.PRNG = cfg.PRNG
	backend := hisa.NewRNSBackend(rnsCfg)
	traceBase := cfg.TraceBase
	if traceBase == 0 {
		traceBase = newTraceBase()
	}
	c := &Client{
		cfg:       cfg,
		backend:   backend,
		keys:      backend.PublicKeys(),
		plan:      cfg.Compiled.Plan(),
		traceBase: traceBase,
		conn:      conn,
	}
	if err := c.open(); err != nil {
		return nil, err
	}
	return c, nil
}

// open performs the session handshake on the current connection.
// Callers hold c.mu or are the constructor.
func (c *Client) open() error {
	fp := c.cfg.Compiled.Fingerprint()
	msg := &wire.SessionOpen{
		Fingerprint: fp,
		Rotations:   c.keys.Rotations,
		PK:          c.keys.PK,
		RLK:         c.keys.RLK,
		RTKS:        c.keys.RTKS,
	}
	payload, err := msg.Encode()
	if err != nil {
		return fmt.Errorf("serve: encoding session-open: %w", err)
	}
	if err := wire.WriteFrame(c.conn, wire.MsgSessionOpen, payload); err != nil {
		return fmt.Errorf("serve: sending session-open: %w", err)
	}
	t, resp, err := wire.ReadFrame(c.conn, c.cfg.MaxFrame)
	if err != nil {
		return fmt.Errorf("serve: reading session-accept: %w", err)
	}
	switch t {
	case wire.MsgSessionAccept:
		var accept wire.SessionAccept
		if err := accept.Decode(resp); err != nil {
			return fmt.Errorf("serve: session-accept: %w", err)
		}
		c.sessionID = accept.SessionID
		return nil
	case wire.MsgError:
		var ef wire.ErrorFrame
		if err := ef.Decode(resp); err != nil {
			return fmt.Errorf("serve: undecodable error frame: %w", err)
		}
		return &ef
	default:
		return fmt.Errorf("serve: unexpected %v frame during handshake", t)
	}
}

// Encrypt encodes and encrypts an input image under this client's keys,
// laid out as the compiled circuit expects.
func (c *Client) Encrypt(img *tensor.Tensor) *htc.CipherTensor {
	return htc.EncryptTensor(c.backend, img, c.plan, c.cfg.Compiled.Options.Scales)
}

// Decrypt recovers the prediction tensor from an encrypted result, in the
// circuit's output shape exactly as chet.Session.Decrypt does.
func (c *Client) Decrypt(out *htc.CipherTensor) *tensor.Tensor {
	return htc.DecryptTensor(c.backend, out).Reshape(c.cfg.Compiled.Circuit.Output.OutShape...)
}

// redialLocked replaces a dead connection and re-runs the session handshake
// over the new one. Callers hold c.mu.
func (c *Client) redialLocked() error {
	if c.addr == "" {
		return errors.New("serve: cannot redial a client not created with Dial")
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("serve: redial %s: %w", c.addr, err)
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	return c.open()
}

// retryTransport runs op, redialing per the configured policy when it fails
// at the transport layer (connection cut mid-request, write to a dead
// socket). A *wire.ErrorFrame is the server's answer — the transport worked —
// so it is returned without a retry; re-sending after a redial is safe
// because an inference is a pure function of its ciphertext. Callers hold
// c.mu (backoff sleeps while holding it; requests on one client serialize
// anyway).
func (c *Client) retryTransport(op func() (*htc.CipherTensor, error)) (*htc.CipherTensor, error) {
	out, err := op()
	if err == nil || c.addr == "" || c.cfg.Redial.Attempts <= 0 {
		return out, err
	}
	var ef *wire.ErrorFrame
	if errors.As(err, &ef) {
		return out, err
	}
	backoff := c.cfg.Redial.Backoff
	for attempt := 1; attempt <= c.cfg.Redial.Attempts; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		if rerr := c.redialLocked(); rerr != nil {
			if errors.As(rerr, &ef) {
				return nil, rerr
			}
			err = rerr
			continue
		}
		out, err = op()
		if err == nil || errors.As(err, &ef) {
			return out, err
		}
	}
	return nil, err
}

// Infer ships an encrypted tensor to the server and returns the encrypted
// result. If the server reports the session unknown (evicted under the
// session cap), the client transparently re-opens once and retries; with a
// RedialPolicy configured, transient transport failures reconnect and retry.
func (c *Client) Infer(in *htc.CipherTensor) (*htc.CipherTensor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := func() (*htc.CipherTensor, error) { return c.inferLocked(in) }
	out, err := c.retryTransport(op)
	var ef *wire.ErrorFrame
	if errors.As(err, &ef) && ef.Code == wire.CodeUnknownSession {
		if err := c.open(); err != nil {
			return nil, fmt.Errorf("serve: re-opening evicted session: %w", err)
		}
		return c.retryTransport(op)
	}
	return out, err
}

// checkOutput refuses a response tensor that does not hold the circuit's
// output: Decrypt reshapes to that shape, and a peer must not be able to make
// it panic on another size.
func (c *Client) checkOutput(t *htc.CipherTensor) error {
	want := 1
	for _, d := range c.cfg.Compiled.Circuit.Output.OutShape {
		want *= d
	}
	if got := t.C * t.H * t.W; got != want {
		return fmt.Errorf("serve: response tensor %dx%dx%d holds %d elements, the circuit outputs %d",
			t.C, t.H, t.W, got, want)
	}
	return nil
}

func (c *Client) inferLocked(in *htc.CipherTensor) (*htc.CipherTensor, error) {
	if c.conn == nil {
		return nil, errors.New("serve: client is closed")
	}
	c.nextReq++
	msg := &wire.InferRequest{
		SessionID:  c.sessionID,
		RequestID:  c.nextReq,
		TraceID:    c.traceBase + c.nextReq,
		ParentSpan: telemetry.NewSpanID(),
		Tensor:     in,
	}
	if c.cfg.Timeout > 0 {
		msg.TimeoutMillis = uint32(min(c.cfg.Timeout.Milliseconds(), int64(^uint32(0))))
	}
	payload, err := msg.Encode()
	if err != nil {
		return nil, fmt.Errorf("serve: encoding infer-request: %w", err)
	}
	if err := wire.WriteFrame(c.conn, wire.MsgInferRequest, payload); err != nil {
		return nil, fmt.Errorf("serve: sending infer-request: %w", err)
	}
	t, resp, err := wire.ReadFrame(c.conn, c.cfg.MaxFrame)
	if err != nil {
		return nil, fmt.Errorf("serve: reading infer-response: %w", err)
	}
	switch t {
	case wire.MsgInferResponse:
		var ir wire.InferResponse
		if err := ir.Decode(resp); err != nil {
			return nil, fmt.Errorf("serve: infer-response: %w", err)
		}
		if ir.RequestID != msg.RequestID {
			return nil, fmt.Errorf("serve: response for request %d, expected %d", ir.RequestID, msg.RequestID)
		}
		if ir.TraceID != msg.TraceID {
			return nil, fmt.Errorf("serve: response trace %016x, expected %016x", ir.TraceID, msg.TraceID)
		}
		// A coalesced response carries the whole batch's predictions; this
		// request's is in the indicated lane. The lane view is pure metadata
		// (origin shift), so demultiplexing costs no homomorphic operations.
		if err := c.checkOutput(ir.Tensor); err != nil {
			return nil, err
		}
		if ir.Batch > 1 {
			if int(ir.Lane) >= ir.Tensor.Batches() {
				return nil, fmt.Errorf("serve: response lane %d out of range for batch capacity %d",
					ir.Lane, ir.Tensor.Batches())
			}
			return htc.LaneView(ir.Tensor, int(ir.Lane), c.backend.Slots()), nil
		}
		return ir.Tensor, nil
	case wire.MsgError:
		var ef wire.ErrorFrame
		if err := ef.Decode(resp); err != nil {
			return nil, fmt.Errorf("serve: undecodable error frame: %w", err)
		}
		return nil, &ef
	default:
		return nil, fmt.Errorf("serve: unexpected %v frame", t)
	}
}

// Run is the full client loop for one input: encrypt, send, decrypt.
func (c *Client) Run(img *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := c.Infer(c.Encrypt(img))
	if err != nil {
		return nil, err
	}
	return c.Decrypt(out), nil
}

// EncryptBatch encrypts up to the compiled batch capacity of images into the
// lanes of one cipher tensor, for InferBatch.
func (c *Client) EncryptBatch(imgs []*tensor.Tensor) *htc.CipherTensor {
	return htc.EncryptTensorBatch(c.backend, imgs, c.plan, c.cfg.Compiled.Options.Scales)
}

// DecryptBatch recovers the first n lane predictions of a batched result,
// each in the circuit's output shape as Decrypt returns it.
func (c *Client) DecryptBatch(out *htc.CipherTensor, n int) []*tensor.Tensor {
	ts := htc.DecryptTensorBatch(c.backend, out, n)
	for i, t := range ts {
		ts[i] = t.Reshape(c.cfg.Compiled.Circuit.Output.OutShape...)
	}
	return ts
}

// InferBatch ships a client-packed batch (count images in the leading lanes
// of one tensor, from EncryptBatch) and returns the encrypted batched
// result. Like Infer, it transparently re-opens once if the session was
// evicted.
func (c *Client) InferBatch(in *htc.CipherTensor, count int) (*htc.CipherTensor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := func() (*htc.CipherTensor, error) { return c.inferBatchLocked(in, count) }
	out, err := c.retryTransport(op)
	var ef *wire.ErrorFrame
	if errors.As(err, &ef) && ef.Code == wire.CodeUnknownSession {
		if err := c.open(); err != nil {
			return nil, fmt.Errorf("serve: re-opening evicted session: %w", err)
		}
		return c.retryTransport(op)
	}
	return out, err
}

func (c *Client) inferBatchLocked(in *htc.CipherTensor, count int) (*htc.CipherTensor, error) {
	if c.conn == nil {
		return nil, errors.New("serve: client is closed")
	}
	c.nextReq++
	msg := &wire.InferBatchRequest{
		SessionID:  c.sessionID,
		RequestID:  c.nextReq,
		TraceID:    c.traceBase + c.nextReq,
		ParentSpan: telemetry.NewSpanID(),
		Count:      uint32(count),
		Tensor:     in,
	}
	if c.cfg.Timeout > 0 {
		msg.TimeoutMillis = uint32(min(c.cfg.Timeout.Milliseconds(), int64(^uint32(0))))
	}
	payload, err := msg.Encode()
	if err != nil {
		return nil, fmt.Errorf("serve: encoding infer-batch-request: %w", err)
	}
	if err := wire.WriteFrame(c.conn, wire.MsgInferBatchRequest, payload); err != nil {
		return nil, fmt.Errorf("serve: sending infer-batch-request: %w", err)
	}
	t, resp, err := wire.ReadFrame(c.conn, c.cfg.MaxFrame)
	if err != nil {
		return nil, fmt.Errorf("serve: reading infer-batch-response: %w", err)
	}
	switch t {
	case wire.MsgInferBatchResponse:
		var ir wire.InferBatchResponse
		if err := ir.Decode(resp); err != nil {
			return nil, fmt.Errorf("serve: infer-batch-response: %w", err)
		}
		if ir.RequestID != msg.RequestID {
			return nil, fmt.Errorf("serve: response for request %d, expected %d", ir.RequestID, msg.RequestID)
		}
		if ir.TraceID != msg.TraceID {
			return nil, fmt.Errorf("serve: response trace %016x, expected %016x", ir.TraceID, msg.TraceID)
		}
		if int(ir.Count) != count {
			return nil, fmt.Errorf("serve: response carries %d lanes, expected %d", ir.Count, count)
		}
		if err := c.checkOutput(ir.Tensor); err != nil {
			return nil, err
		}
		return ir.Tensor, nil
	case wire.MsgError:
		var ef wire.ErrorFrame
		if err := ef.Decode(resp); err != nil {
			return nil, fmt.Errorf("serve: undecodable error frame: %w", err)
		}
		return nil, &ef
	default:
		return nil, fmt.Errorf("serve: unexpected %v frame", t)
	}
}

// RunBatch is the full client loop for several inputs at once: encrypt into
// lanes, send as one batched request, decrypt each lane's prediction.
func (c *Client) RunBatch(imgs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	out, err := c.InferBatch(c.EncryptBatch(imgs), len(imgs))
	if err != nil {
		return nil, err
	}
	return c.DecryptBatch(out, len(imgs)), nil
}

// Close tears down the connection. The server garbage-collects the session
// through LRU eviction; there is no explicit close frame.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
