// Package network provides SEBDB's network layer (paper §III-B): a
// small length-prefixed request/response wire protocol over TCP, with
// stream handlers for subscription-style kinds. Block propagation rides
// it as the replica package's verified block stream.
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sebdb/internal/clock"
)

// Frame kinds of the wire protocol.
const (
	KindHeight     uint8 = 1 // req: empty            resp: uint64 height
	KindHeaders    uint8 = 3 // req: uint64 from      resp: count + headers
	KindAuthQuery  uint8 = 4 // req/resp: auth payloads (node package)
	KindAuthDigest uint8 = 5
	KindSQL        uint8 = 6 // req: sql string       resp: encoded result
	// Kinds 2, 7, 8 and 11 are retired and stay unassigned: a peer still
	// sending them gets UnknownKindMsg.
	KindSubscribe uint8 = 9  // req: uint64 cursor    -> stream of KindBlockPush frames (replica package)
	KindBlockPush uint8 = 10 // push: uint64 leader height + block bytes (empty = heartbeat)
	KindError     uint8 = 0xFF
)

// UnknownKindMsg is the stable KindError payload the server replies with
// when a frame arrives for a kind no handler is registered for. Clients
// match on it verbatim, so it must never change shape.
const UnknownKindMsg = "network: unknown wire kind"

// MaxFrame bounds a frame to 64 MiB; larger frames indicate corruption
// or abuse.
const MaxFrame = 64 << 20

// WriteFrame writes one kind-tagged, length-prefixed frame.
func WriteFrame(w io.Writer, kind uint8, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("network: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (kind uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("network: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Handler answers one request frame.
type Handler func(payload []byte) ([]byte, error)

// StreamHandler takes over a connection after its opening request frame.
// The server stops request/response dispatch on the connection and the
// handler owns it until it returns; the connection is closed afterwards.
// Subscription-style kinds (KindSubscribe) use this to push frames for
// the life of the session instead of answering one response per request.
type StreamHandler func(payload []byte, conn net.Conn)

// Server dispatches inbound frames to registered handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[uint8]Handler
	streams  map[uint8]StreamHandler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   chan struct{}
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{
		handlers: make(map[uint8]Handler),
		streams:  make(map[uint8]StreamHandler),
		conns:    make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
}

// Handle registers the handler for a frame kind.
func (s *Server) Handle(kind uint8, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = h
}

// HandleStream registers a stream handler for a frame kind.
func (s *Server) HandleStream(kind uint8, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams[kind] = h
}

// Serve accepts connections on ln until Close. Each connection carries
// a sequence of request/response frame pairs.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close() //sebdb:ignore-err best-effort teardown of a finished connection
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		kind, payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		s.mu.RLock()
		sh, isStream := s.streams[kind]
		h, ok := s.handlers[kind]
		s.mu.RUnlock()
		if isStream {
			sh(payload, conn)
			return
		}
		var resp []byte
		var herr error
		if !ok {
			herr = errors.New(UnknownKindMsg)
		} else {
			resp, herr = h(payload)
		}
		if herr != nil {
			if WriteFrame(conn, KindError, []byte(herr.Error())) != nil {
				return
			}
			continue
		}
		if WriteFrame(conn, kind, resp) != nil {
			return
		}
	}
}

// Close stops accepting, closes every open connection (clients must not
// be able to hold shutdown hostage by staying connected) and waits for
// the connection goroutines to drain.
func (s *Server) Close() error {
	close(s.closed)
	s.mu.Lock()
	ln := s.ln
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range open {
		c.Close() //sebdb:ignore-err unblocking a conn goroutine; the read's error is the signal
	}
	s.wg.Wait()
	return err
}

// appError marks a well-formed KindError reply from the peer: the
// request was delivered and the application refused it, so retrying the
// same bytes cannot help. Transport-level failures stay unwrapped and
// are eligible for redial + retry.
type appError struct{ msg string }

func (e *appError) Error() string { return e.msg }

// IsAppError reports whether err is an application-level KindError reply
// (as opposed to a transport failure).
func IsAppError(err error) bool {
	var ae *appError
	return errors.As(err, &ae)
}

// Client is a single-connection request/response client. It is safe for
// concurrent use; requests are serialised on the connection. A client
// created by Dial remembers its address and transparently redials after
// transport failures, bounded by SetRetry; SetTimeout bounds each
// write+read exchange so a stalled peer cannot block a caller forever.
type Client struct {
	// addr is the dial target. Immutable after construction.
	addr string

	// timeout/retries/backoff tune Call. timeout and backoff hold
	// time.Duration nanoseconds; retries is the number of attempts
	// AFTER the first. Atomics so tuning races with in-flight calls
	// harmlessly.
	timeout atomic.Int64
	retries atomic.Int64
	backoff atomic.Int64

	// closed flips once; a closed client never redials.
	closed atomic.Bool

	// connMu guards the conn pointer only — it is never held across
	// I/O, so Close and redial cannot deadlock behind a hung exchange.
	connMu sync.Mutex
	conn   net.Conn

	// mu serialises request/response pairs on the connection. Close
	// stays off it so closing the conn can unblock a Call hung
	// mid-exchange.
	mu sync.Mutex
}

// Default Call tuning: one redial after a transport failure, a short
// pause before it, and no deadline (callers opt in via SetTimeout
// because VO and snapshot-chunk exchanges can legitimately run long).
const (
	defaultCallRetries = 1
	defaultCallBackoff = 50 * time.Millisecond
)

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, addr: addr}
	c.retries.Store(defaultCallRetries)
	c.backoff.Store(int64(defaultCallBackoff))
	return c, nil
}

// SetTimeout bounds each write+read exchange of a Call; zero or negative
// removes the bound.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// SetRetry configures how many times Call redials and resends after a
// transport failure (attempts beyond the first) and the pause before
// each retry.
func (c *Client) SetRetry(retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	c.retries.Store(int64(retries))
	c.backoff.Store(int64(backoff))
}

// current returns the live connection, redialing if a previous failure
// cleared it. Dialing happens outside every lock.
func (c *Client) current() (net.Conn, error) {
	c.connMu.Lock()
	conn := c.conn
	c.connMu.Unlock()
	if conn != nil {
		return conn, nil
	}
	if c.closed.Load() {
		return nil, errors.New("network: client closed")
	}
	fresh, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	c.connMu.Lock()
	if c.closed.Load() {
		c.connMu.Unlock()
		fresh.Close() //sebdb:ignore-err losing race with Close; discard the fresh conn
		return nil, errors.New("network: client closed")
	}
	if c.conn == nil {
		c.conn = fresh
		c.connMu.Unlock()
		return fresh, nil
	}
	// Another caller redialed first; use theirs.
	conn = c.conn
	c.connMu.Unlock()
	fresh.Close() //sebdb:ignore-err concurrent redial won; discard the spare conn
	return conn, nil
}

// drop retires a connection after a transport failure so the next
// attempt redials. Only the exact failed conn is cleared — a concurrent
// redial's fresh connection stays.
func (c *Client) drop(bad net.Conn) {
	c.connMu.Lock()
	if c.conn == bad {
		c.conn = nil
	}
	c.connMu.Unlock()
	bad.Close() //sebdb:ignore-err best-effort teardown of a failed connection
}

// exchange runs one serialised request/response pair on conn.
func (c *Client) exchange(conn net.Conn, kind uint8, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := time.Duration(c.timeout.Load()); d > 0 {
		// Absolute wall time: deadlines are the one place an injected
		// clock.Source cannot serve (obsclock allows clock.Wall).
		if err := conn.SetDeadline(clock.Wall().Add(d)); err != nil {
			return nil, err
		}
		defer conn.SetDeadline(time.Time{}) //sebdb:ignore-err conn may already be dead; next use fails anyway
	}
	//sebdb:ignore-lockio reason: c.mu is the request/response serialiser for this connection — holding it across the exchange IS its job; Close stays lock-free to unblock a hung Call
	if err := WriteFrame(conn, kind, payload); err != nil {
		return nil, err
	}
	//sebdb:ignore-lockio reason: response read is the second half of the serialised exchange under c.mu
	k, resp, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if k == KindError {
		return nil, &appError{msg: string(resp)}
	}
	if k != kind {
		return nil, fmt.Errorf("network: response kind %d for request %d", k, kind)
	}
	return resp, nil
}

// Call sends one request and awaits its response. Transport failures
// (broken conn, deadline, mismatched reply kind) drop the connection
// and, within the SetRetry budget, redial and resend; a KindError reply
// is an application answer and is returned as-is without retry.
func (c *Client) Call(kind uint8, payload []byte) ([]byte, error) {
	attempts := int(c.retries.Load()) + 1
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if d := time.Duration(c.backoff.Load()); d > 0 {
				time.Sleep(d)
			}
		}
		conn, err := c.current()
		if err != nil {
			lastErr = err
			if c.closed.Load() {
				break
			}
			continue
		}
		resp, err := c.exchange(conn, kind, payload)
		if err == nil {
			return resp, nil
		}
		if IsAppError(err) {
			return nil, err
		}
		lastErr = err
		c.drop(conn)
	}
	return nil, lastErr
}

// Close closes the underlying connection and disables redial.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.connMu.Lock()
	conn := c.conn
	c.connMu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}
