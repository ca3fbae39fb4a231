package mux

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Session errors.
var (
	// ErrSessionClosed means the transport conn under the session died
	// (peer close, write failure, dead-peer detection). Callers holding
	// live secure-channel state should reconnect and retry — the channel
	// keys outlive the carrier.
	ErrSessionClosed = errors.New("mux: session closed")
	// ErrTooManyStreams rejects stream opens beyond Config.MaxStreams.
	ErrTooManyStreams = errors.New("mux: too many concurrent streams")
	// ErrDeadPeer closes a session whose peer stopped answering within
	// Config.DeadAfter — the half-open-connection detector.
	ErrDeadPeer = errors.New("mux: peer failed heartbeat deadline")
	// ErrPingFlood closes a session whose peer pings far faster than the
	// heartbeat schedule — hostile traffic, not keepalive.
	ErrPingFlood = errors.New("mux: ping flood")
	// errProtocol closes a session on peer frames that violate the
	// stream state machine (reused IDs, wrong parity, opens from the
	// server side).
	errProtocol = errors.New("mux: protocol violation")
)

// RemoteError is a handler failure relayed by an abortive stream close:
// the request reached the far side and was refused there, as opposed to
// the transport failing. The broker maps it onto its proxy-status error
// so the re-attest fallback fires on session loss, unless CallerFault
// (FlagCallerFault) says the request itself was at fault.
type RemoteError struct {
	Msg         string
	CallerFault bool
}

func (e *RemoteError) Error() string { return "mux: remote: " + e.Msg }

// Config parameterizes a session. The zero value takes every default,
// which is what the broker and the gateway run.
type Config struct {
	// MaxStreams bounds concurrent streams per session (default 1024).
	// Opens beyond it are refused per-stream; the session survives.
	MaxStreams int
	// KeepAlive is the heartbeat interval; DeadAfter is how long the
	// session tolerates total silence before declaring the peer dead
	// (defaults 15s and 3×KeepAlive).
	KeepAlive time.Duration
	DeadAfter time.Duration
	// PingBudget is how many peer pings one KeepAlive interval tolerates
	// before the session is closed as hostile (default 64 — a correct
	// peer sends one).
	PingBudget int
}

// Fixed session limits.
const (
	// maxRequest caps one stream's request bytes on a serving session,
	// matching the HTTP fronts' MaxBytesReader cap; maxResponse caps the
	// reply on a calling session.
	maxRequest  = 1 << 20
	maxResponse = 4 << 20
	// writeTimeout bounds one conn write when the conn supports write
	// deadlines.
	writeTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = 15 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.KeepAlive
	}
	if c.PingBudget <= 0 {
		c.PingBudget = 64
	}
	return c
}

// Handler serves one completed mux request on a serving session: the
// stream kind and the request bytes in, the response bytes out. An error
// becomes an abortive close carrying err.Error() to the caller, marked
// FlagCallerFault when the error blames the request (writeCloseErr).
type Handler func(ctx context.Context, kind byte, req []byte) ([]byte, error)

// stream is one logical exchange in flight on a session.
type stream struct {
	id   uint32
	kind byte

	mu     sync.Mutex
	buf    []byte // received bytes
	fin    bool   // peer finished writing
	ferr   error  // abortive close or session death
	notify chan struct{}
}

// signal wakes one waiter; the 1-slot channel coalesces bursts.
func (st *stream) signal() {
	select {
	case st.notify <- struct{}{}:
	default:
	}
}

// Session is one multiplexed connection, either side.
type Session struct {
	cfg     Config
	conn    io.ReadWriteCloser
	br      *bufio.Reader // readLoop only: one read syscall, many frames
	client  bool
	handler Handler

	ctx    context.Context
	cancel context.CancelFunc

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	streams map[uint32]*stream
	nextID  uint32

	done      chan struct{}
	closeOnce sync.Once
	closeErr  error

	work chan *stream // hands a completed request to a parked worker
	idle atomic.Int32 // workers parked, or about to park, on work

	lastRecv   atomic.Int64 // unix nanos of the last frame received
	pingsInWin atomic.Int32
	pingToken  atomic.Uint64
}

// maxIdleWorkers bounds the handler workers a serving session keeps parked.
const maxIdleWorkers = 4

func newSession(conn io.ReadWriteCloser, cfg Config, client bool, h Handler) *Session {
	s := &Session{
		cfg:     cfg.withDefaults(),
		conn:    conn,
		br:      bufio.NewReader(conn),
		client:  client,
		handler: h,
		streams: make(map[uint32]*stream),
		done:    make(chan struct{}),
		work:    make(chan *stream),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if client {
		s.nextID = 1 // clients open odd stream IDs; servers open none
	}
	s.lastRecv.Store(time.Now().UnixNano())
	go s.keepalive()
	return s
}

// Client runs a session over conn and returns immediately; issue
// requests with Call. The caller owns conn's lifetime through Close.
func Client(conn io.ReadWriteCloser, cfg Config) *Session {
	s := newSession(conn, cfg, true, nil)
	go func() { _ = s.readLoop() }()
	return s
}

// Serve runs a serving session over conn, dispatching each completed
// request to h, and blocks until the session ends. It returns the close
// cause (nil for a clean peer close).
func Serve(conn io.ReadWriteCloser, h Handler, cfg Config) error {
	s := newSession(conn, cfg, false, h)
	err := s.readLoop()
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// Done is closed when the session ends; Err then reports the cause.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err reports the close cause after Done.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// Close tears the session down (ErrSessionClosed to in-flight calls).
func (s *Session) Close() error {
	s.close(nil)
	return nil
}

// close records the first cause, closes the conn, and fails every
// in-flight stream.
func (s *Session) close(cause error) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closeErr = cause
		open := make([]*stream, 0, len(s.streams))
		for _, st := range s.streams {
			open = append(open, st)
		}
		s.mu.Unlock()
		s.cancel()
		close(s.done)
		_ = s.conn.Close()
		for _, st := range open {
			st.mu.Lock()
			if st.ferr == nil {
				st.ferr = s.sessionErr(cause)
			}
			st.mu.Unlock()
			st.signal()
		}
	})
}

func (s *Session) sessionErr(cause error) error {
	if cause == nil {
		return ErrSessionClosed
	}
	return fmt.Errorf("%w: %v", ErrSessionClosed, cause)
}

// --- frame writing ---

type writeDeadliner interface{ SetWriteDeadline(time.Time) error }

// write serializes frames onto the conn in ONE conn.Write, under one lock,
// so concurrent streams never interleave bytes. Callers keep the encoded
// total within headerLen+MaxFramePayload, the largest frame a peer may
// send, so wbuf stays one frame long. Control frames (ping, pong, abortive
// close) go out one per call; send coalesces a stream's OPEN, DATA and
// CLOSE.
func (s *Session) write(frames ...Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	select {
	case <-s.done:
		return s.sessionErr(s.Err())
	default:
	}
	if wd, ok := s.conn.(writeDeadliner); ok {
		_ = wd.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	s.wbuf = s.wbuf[:0]
	for _, f := range frames {
		s.wbuf = AppendFrame(s.wbuf, f)
	}
	if _, err := s.conn.Write(s.wbuf); err != nil {
		s.close(err)
		return s.sessionErr(err)
	}
	return nil
}

// writeCloseErr aborts a stream toward the peer, truncating long texts; an
// err with a CallerFault() bool method reporting true sets FlagCallerFault.
func (s *Session) writeCloseErr(stream uint32, err error) {
	msg := err.Error()
	if len(msg) > maxCloseErrBytes {
		msg = msg[:maxCloseErrBytes]
	}
	flags := FlagError
	var fault interface{ CallerFault() bool }
	if errors.As(err, &fault) && fault.CallerFault() {
		flags |= FlagCallerFault
	}
	_ = s.write(Frame{Type: FrameClose, Flags: flags, Stream: stream, Payload: []byte(msg)})
}

// --- stream registry ---

func (s *Session) register(st *stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return s.sessionErr(s.closeErr)
	default:
	}
	if len(s.streams) >= s.cfg.MaxStreams {
		return ErrTooManyStreams
	}
	if _, dup := s.streams[st.id]; dup {
		return fmt.Errorf("%w: stream %d reused", errProtocol, st.id)
	}
	s.streams[st.id] = st
	return nil
}

func (s *Session) drop(st *stream) {
	s.mu.Lock()
	delete(s.streams, st.id)
	s.mu.Unlock()
}

func (s *Session) lookup(id uint32) (*stream, bool) {
	s.mu.Lock()
	st, ok := s.streams[id]
	s.mu.Unlock()
	return st, ok
}

// --- the client call path ---

// Call runs one request/response exchange: open a stream of the given
// kind, send req (chunked), half-close, and collect the response until the
// peer closes. Transport death surfaces as ErrSessionClosed; a handler
// failure as *RemoteError.
func (s *Session) Call(ctx context.Context, kind byte, req []byte) ([]byte, error) {
	if !s.client {
		return nil, fmt.Errorf("%w: Call on a serving session", errProtocol)
	}
	s.mu.Lock()
	id := s.nextID
	s.nextID += 2
	s.mu.Unlock()
	st := &stream{id: id, kind: kind, notify: make(chan struct{}, 1)}
	if err := s.register(st); err != nil {
		return nil, err
	}
	defer s.drop(st)
	if err := s.send(st, true, req); err != nil {
		return nil, err
	}
	return s.awaitReply(ctx, st)
}

// maxChunk is the most stream data one coalesced write carries: a DATA
// frame with room left for an OPEN before it and a CLOSE after it inside
// the headerLen+MaxFramePayload a single write may span.
const maxChunk = MaxFramePayload - (headerLen + 1) - headerLen

// send writes data in chunks, then half-closes. Frames are coalesced: each
// pass of the loop is one write carrying the stream's OPEN (first pass of
// a call), up to maxChunk of DATA, and the CLOSE (last pass) — so an
// exchange that fits one chunk is one write, and a larger one is the same
// loop flushing per chunk, the write lock released between chunks. A
// stream the peer has aborted stops sending.
func (s *Session) send(st *stream, open bool, data []byte) error {
	for {
		st.mu.Lock()
		err := st.ferr
		st.mu.Unlock()
		if err != nil {
			return err
		}
		n := min(len(data), maxChunk)
		var frames [3]Frame
		k := 0
		if open {
			frames[k] = Frame{Type: FrameOpen, Stream: st.id, Payload: []byte{st.kind}}
			k++
			open = false
		}
		if n > 0 {
			frames[k] = Frame{Type: FrameData, Stream: st.id, Payload: data[:n]}
			k++
		}
		data = data[n:]
		if len(data) == 0 {
			frames[k] = Frame{Type: FrameClose, Stream: st.id}
			k++
		}
		if err := s.write(frames[:k]...); err != nil || len(data) == 0 {
			return err
		}
	}
}

// awaitReply collects response bytes until the peer's close.
func (s *Session) awaitReply(ctx context.Context, st *stream) ([]byte, error) {
	for {
		st.mu.Lock()
		if st.ferr != nil {
			err := st.ferr
			st.mu.Unlock()
			return nil, err
		}
		if st.fin {
			out := st.buf
			st.mu.Unlock()
			return out, nil
		}
		st.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.done:
			return nil, s.sessionErr(s.Err())
		case <-st.notify:
		}
	}
}

// --- the receive path ---

// readFrame reads one frame off the session's buffered reader, caps
// checked before any allocation. Header and control payloads are parsed
// where they lie in the read buffer (dispatch is done with them before
// the next read); a stream payload (DATA, abortive CLOSE) is allocated,
// for the stream to keep.
func (s *Session) readFrame() (Frame, error) {
	hdr, err := s.br.Peek(headerLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF // the conn died mid-header
		}
		return Frame{}, err
	}
	f, length, err := parseHeader(hdr, MaxFramePayload)
	if err != nil {
		return Frame{}, err
	}
	_, _ = s.br.Discard(headerLen) // cannot fail: just peeked
	switch {
	case length == 0:
	case f.Type == FrameData || f.Type == FrameClose:
		f.Payload = make([]byte, length)
		if _, err := io.ReadFull(s.br, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("mux: short payload: %w", err)
		}
	default:
		if f.Payload, err = s.br.Peek(int(length)); err != nil {
			return Frame{}, fmt.Errorf("mux: short payload: %w", err)
		}
		_, _ = s.br.Discard(int(length))
	}
	return f, nil
}

// readLoop decodes frames until the conn dies, returning the cause.
func (s *Session) readLoop() error {
	for {
		f, err := s.readFrame()
		if err != nil {
			// Peer close or transport death; hostile framing also lands
			// here (oversize, unknown type) and kills the session.
			s.close(err)
			return err
		}
		s.lastRecv.Store(time.Now().UnixNano())
		if err := s.dispatch(f); err != nil {
			s.close(err)
			return err
		}
	}
}

// dispatch handles one received frame. A returned error is fatal to the
// session (protocol violations, floods); per-stream failures are not.
func (s *Session) dispatch(f Frame) error {
	switch f.Type {
	case FrameOpen:
		return s.onOpen(f)
	case FrameData:
		s.onData(f)
	case FrameClose:
		s.onClose(f)
	case FramePing:
		if s.pingsInWin.Add(1) > int32(s.cfg.PingBudget) {
			return ErrPingFlood
		}
		return s.write(Frame{Type: FramePong, Stream: f.Stream, Payload: f.Payload})
	case FramePong:
		// lastRecv already refreshed; that is the pong's whole job.
	}
	return nil
}

// onOpen registers a peer-opened stream (serving sessions only).
func (s *Session) onOpen(f Frame) error {
	if s.client {
		return fmt.Errorf("%w: server opened stream %d", errProtocol, f.Stream)
	}
	if f.Stream%2 != 1 {
		return fmt.Errorf("%w: client stream %d must be odd", errProtocol, f.Stream)
	}
	st := &stream{id: f.Stream, kind: f.Payload[0], notify: make(chan struct{}, 1)}
	switch err := s.register(st); {
	case errors.Is(err, ErrTooManyStreams):
		// Refuse the stream, keep the session: a busy-but-honest client
		// hitting the cap should see a per-call error, not lose every
		// other stream in flight.
		s.writeCloseErr(f.Stream, err)
		return nil
	case err != nil:
		return err
	}
	return nil
}

// onData appends to the stream's buffer up to its cap; past the cap the
// stream is aborted toward the peer and the session lives. Frames for
// unknown streams are dropped: they are the benign tail of a canceled,
// refused or aborted stream racing in flight.
func (s *Session) onData(f Frame) {
	st, ok := s.lookup(f.Stream)
	if !ok {
		return
	}
	limit := maxResponse
	if !s.client {
		limit = maxRequest
	}
	st.mu.Lock()
	if st.fin || st.ferr != nil {
		st.mu.Unlock()
		return
	}
	if len(st.buf)+len(f.Payload) > limit {
		st.ferr = fmt.Errorf("mux: stream %d exceeds %d-byte cap", st.id, limit)
		st.mu.Unlock()
		st.signal()
		s.writeCloseErr(st.id, fmt.Errorf("request exceeds %d-byte cap", limit))
		if !s.client {
			s.drop(st)
		}
		return
	}
	if st.buf == nil {
		st.buf = f.Payload // readFrame allocated it for the stream: a one-frame body is never copied
	} else {
		st.buf = append(st.buf, f.Payload...)
	}
	st.mu.Unlock()
	st.signal()
}

// onClose finishes (clean) or fails (FlagError) the stream; on a serving
// session a clean close means the request is complete, so dispatch it.
func (s *Session) onClose(f Frame) {
	st, ok := s.lookup(f.Stream)
	if !ok {
		return
	}
	st.mu.Lock()
	if f.Flags&FlagError != 0 {
		st.ferr = &RemoteError{Msg: string(f.Payload), CallerFault: f.Flags&FlagCallerFault != 0}
	} else {
		st.fin = true
	}
	failed := st.ferr != nil
	st.mu.Unlock()
	st.signal()
	if s.client {
		return
	}
	s.handleRequest(st, failed)
}

// handleRequest hands a completed request to a parked worker or, when
// none is parked, to a new one: a slow handler never queues another.
func (s *Session) handleRequest(st *stream, failed bool) {
	if failed {
		s.drop(st)
		return
	}
	select {
	case s.work <- st:
	default:
		go s.worker(st)
	}
}

// worker serves st, then parks for the next request until the session
// ends; it exits instead when maxIdleWorkers already park. A parked
// worker keeps the stack its handler grew (the GC shrinks an idle one).
func (s *Session) worker(st *stream) {
	for {
		resp, err := s.handler(s.ctx, st.kind, st.buf)
		if err != nil {
			s.writeCloseErr(st.id, err)
		} else {
			_ = s.send(st, false, resp)
		}
		s.drop(st)
		if s.idle.Add(1) > maxIdleWorkers {
			s.idle.Add(-1)
			return
		}
		select {
		case st = <-s.work:
			s.idle.Add(-1)
		case <-s.done:
			return
		}
	}
}

// --- keepalive ---

// keepalive sends heartbeats and closes the session when the peer stops
// answering: the half-open-connection detector. It also meters the ping
// budget window.
func (s *Session) keepalive() {
	ticker := time.NewTicker(s.cfg.KeepAlive)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			if time.Since(time.Unix(0, s.lastRecv.Load())) > s.cfg.DeadAfter {
				s.close(ErrDeadPeer)
				return
			}
			s.pingsInWin.Store(0)
			var tok [pingPayloadLen]byte
			binary.BigEndian.PutUint64(tok[:], s.pingToken.Add(1))
			_ = s.write(Frame{Type: FramePing, Payload: tok[:]})
		}
	}
}
