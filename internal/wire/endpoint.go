package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Encoder is a message that serializes to a frame payload.
type Encoder interface{ Encode() ([]byte, error) }

// Decoder is a message that parses a frame payload.
type Decoder interface{ Decode([]byte) error }

// Handler answers one frame's payload on c. It returns false when the
// connection is beyond use, which ends it.
type Handler func(c *Conn, payload []byte) bool

// Routes opens one accepted connection for the endpoint's owner: it returns
// the handlers the connection's frames dispatch on, by type, and a release
// func (nil for none) that runs when the connection ends. A table per
// connection lets an owner keep per-connection state — the router's upstream
// dials — in its handlers' closures.
type Routes func(c *Conn) (map[MsgType]Handler, func())

// Endpoint is the serving side of the protocol, shared by the inference
// worker and the fleet router: the listener, the live-connection set, the
// draining flag and one frame loop per connection. The loop reads frames
// under the endpoint's cap and dispatches each to its handler by type; a
// type without one is answered with a bad-message error frame and the
// connection survives. A read error ends the connection: a clean EOF or a
// closed connection silently, an oversize frame through the owner's refusal,
// anything else after a bad-message error frame.
type Endpoint struct {
	maxFrame int
	routes   Routes
	oversize func(c *Conn, t MsgType, cause error)

	errorFrames atomic.Uint64
	draining    atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	loops sync.WaitGroup
}

// NewEndpoint builds an endpoint capping frame payloads at maxFrame.
// oversize, when non-nil, answers a frame whose length prefix exceeds the cap
// (nothing of its payload read); a nil one answers with a bad-message frame.
func NewEndpoint(maxFrame int, routes Routes, oversize func(c *Conn, t MsgType, cause error)) *Endpoint {
	return &Endpoint{maxFrame: maxFrame, routes: routes, oversize: oversize, conns: map[net.Conn]struct{}{}}
}

// MaxFrame returns the payload cap the endpoint reads frames under.
func (e *Endpoint) MaxFrame() int { return e.maxFrame }

// Draining reports whether BeginDrain has run; owners refuse new work then.
func (e *Endpoint) Draining() bool { return e.draining.Load() }

// ErrorFrames counts the error frames the endpoint's connections have sent
// through Fail.
func (e *Endpoint) ErrorFrames() uint64 { return e.errorFrames.Load() }

// Serve accepts connections on ln until BeginDrain (or a listener error),
// serving each on its own frame loop. It always returns a non-nil error;
// after BeginDrain the error wraps net.ErrClosed and can be ignored.
func (e *Endpoint) Serve(ln net.Listener) error {
	e.mu.Lock()
	if e.draining.Load() {
		e.mu.Unlock()
		return errors.New("wire: endpoint already shut down")
	}
	e.ln = ln
	e.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: accept: %w", err)
		}
		e.mu.Lock()
		if e.draining.Load() {
			e.mu.Unlock()
			nc.Close()
			continue
		}
		e.conns[nc] = struct{}{}
		e.loops.Add(1)
		e.mu.Unlock()
		go e.serveConn(nc)
	}
}

// BeginDrain sets the draining flag and closes the listener, so Serve
// returns; live connections keep being served until CloseAll. It reports
// false when the drain had already begun.
func (e *Endpoint) BeginDrain() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining.Load() {
		return false
	}
	e.draining.Store(true)
	if e.ln != nil {
		e.ln.Close()
	}
	return true
}

// CloseAll closes every live connection and waits until each frame loop has
// returned.
func (e *Endpoint) CloseAll() {
	e.mu.Lock()
	for nc := range e.conns {
		nc.Close()
	}
	e.mu.Unlock()
	e.loops.Wait()
}

// serveConn is one connection's frame loop. Frames are handled strictly in
// order and the loop is the connection's only writer, so answers never
// interleave.
func (e *Endpoint) serveConn(nc net.Conn) {
	c := &Conn{Conn: nc, ep: e}
	routes, release := e.routes(c)
	defer func() {
		if release != nil {
			release()
		}
		e.mu.Lock()
		delete(e.conns, nc)
		e.mu.Unlock()
		nc.Close()
		e.loops.Done()
	}()
	for {
		t, payload, err := ReadFrame(nc, e.maxFrame)
		if err != nil {
			// Framing is unrecoverable after a bad header, so the connection
			// drops whatever the answer.
			switch {
			case errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF):
			case errors.Is(err, ErrFrameTooLarge) && e.oversize != nil:
				e.oversize(c, t, err)
			default:
				c.Fail(CodeBadMessage, 0, "%v", err)
			}
			return
		}
		var ok bool
		if h := routes[t]; h != nil {
			ok = h(c, payload)
		} else {
			ok = c.Fail(CodeBadMessage, 0, "unexpected %v frame", t)
		}
		if !ok {
			return
		}
	}
}

// Conn is one accepted connection as its handlers see it.
type Conn struct {
	net.Conn
	ep *Endpoint
}

// Reply answers with msg as a frame of type t. False means the connection is
// beyond use.
func (c *Conn) Reply(t MsgType, msg Encoder) bool {
	payload, err := msg.Encode()
	if err != nil {
		return c.Fail(CodeInternal, 0, "encoding %v: %v", t, err)
	}
	return WriteFrame(c.Conn, t, payload) == nil
}

// Fail answers with an error frame for request reqID (0 for the connection).
// False means the connection is beyond use.
func (c *Conn) Fail(code ErrorCode, reqID uint64, format string, args ...any) bool {
	c.ep.errorFrames.Add(1)
	payload, _ := (&ErrorFrame{Code: code, RequestID: reqID, Message: fmt.Sprintf(format, args...)}).Encode()
	return WriteFrame(c.Conn, MsgError, payload) == nil
}

// Call runs one request/response exchange on conn: req goes out as a frame of
// type t, and an answer of type want is decoded into resp. An answer of
// MsgError is returned as the *ErrorFrame error; any other frame type, and
// every transport or codec failure, is an error naming it.
func Call(conn io.ReadWriter, maxFrame int, t MsgType, req Encoder, want MsgType, resp Decoder) error {
	payload, err := req.Encode()
	if err != nil {
		return fmt.Errorf("wire: encoding %v: %w", t, err)
	}
	if err := WriteFrame(conn, t, payload); err != nil {
		return fmt.Errorf("wire: sending %v: %w", t, err)
	}
	rt, body, err := ReadFrame(conn, maxFrame)
	if err != nil {
		return fmt.Errorf("wire: reading %v: %w", want, err)
	}
	switch rt {
	case want:
		if err := resp.Decode(body); err != nil {
			return fmt.Errorf("wire: %v: %w", want, err)
		}
		return nil
	case MsgError:
		var ef ErrorFrame
		if err := ef.Decode(body); err != nil {
			return fmt.Errorf("wire: undecodable error frame: %w", err)
		}
		return &ef
	default:
		return fmt.Errorf("wire: %v answered with %v frame", t, rt)
	}
}
