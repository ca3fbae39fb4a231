package mux

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair returns two ends of a real TCP connection — net.Pipe is fully
// synchronous, which deadlocks request/response protocols whose sides
// write concurrently (a request one way, pongs or an abortive close the
// other).
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, derr := net.Dial("tcp", ln.Addr().String())
	<-done
	if derr != nil || err != nil {
		t.Fatalf("dial: %v / accept: %v", derr, err)
	}
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

// kindTest is a stream kind the session layer carries like any other:
// the mux package routes kinds, it does not interpret them.
const kindTest byte = 0x3

func echoHandler(_ context.Context, kind byte, req []byte) ([]byte, error) {
	if kind == kindTest && string(req) == "fail" {
		return nil, errors.New("handler refused")
	}
	return append([]byte{kind}, req...), nil
}

// --- frame codec ---

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameOpen, Stream: 1, Payload: []byte{KindSecure}},
		{Type: FrameData, Stream: 3, Payload: bytes.Repeat([]byte("x"), MaxFramePayload)},
		{Type: FrameClose, Flags: FlagError, Stream: 5, Payload: []byte("boom")},
		{Type: FramePing, Payload: []byte("12345678")},
	}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	for i, want := range frames {
		got, n, err := DecodeFrame(buf, MaxFramePayload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Stream != want.Stream ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		// The session's reader must agree with DecodeFrame.
		rf, err := newFrameReader(bytes.NewReader(buf[:n])).readFrame()
		if err != nil || rf.Type != want.Type || !bytes.Equal(rf.Payload, want.Payload) {
			t.Fatalf("frame %d: readFrame %+v, %v", i, rf, err)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeFrameHostile(t *testing.T) {
	mk := func(typ byte, length uint32) []byte {
		b := make([]byte, headerLen)
		b[0] = typ
		binary.BigEndian.PutUint32(b[6:10], length)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"oversize", mk(FrameData, MaxFramePayload+1), ErrFrameTooLarge},
		{"zero type", mk(0, 0), ErrBadFrame},
		{"unknown type", mk(0xFF, 0), ErrBadFrame},
		{"truncated header", []byte{FrameData, 0, 0}, ErrBadFrame},
		{"short ping", mk(FramePing, 3), ErrBadFrame},
		{"fat open", mk(FrameOpen, 2), ErrBadFrame},
		{"retired window type", append(mk(0x6, 4), 0, 1, 0, 0), ErrBadFrame},
		{"retired resume type", append(mk(0x7, 4), 0, 0, 0, 2), ErrBadFrame},
		{"truncated payload", mk(FrameData, 64), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.b, MaxFramePayload); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := newFrameReader(bytes.NewReader(tc.b)).readFrame(); err == nil {
			t.Errorf("%s: the session's readFrame accepted it", tc.name)
		}
	}
}

// --- session RPC ---

// Every Config field is a knob the broker and the gateway would have to
// agree on; both run the defaults, and a field stays only while a test
// sets it to exercise its behaviour. Raising this number is an explicit
// edit, like scripts/loc.budget.
func TestMuxConfigFieldBudget(t *testing.T) {
	const budget = 4
	if n := reflect.TypeOf(Config{}).NumField(); n > budget {
		t.Fatalf("mux.Config has %d fields, budget %d", n, budget)
	}
}

func TestCallRoundTrip(t *testing.T) {
	cc, sc := tcpPair(t)
	go func() { _ = Serve(sc, echoHandler, Config{}) }()
	s := Client(cc, Config{})
	defer func() { _ = s.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Concurrent calls interleave on one conn; a large payload exercises
	// chunking (3× the per-frame cap).
	big := bytes.Repeat([]byte("abc"), MaxFramePayload)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			req := big
			if i%2 == 0 {
				req = []byte(fmt.Sprintf("req-%d", i))
			}
			resp, err := s.Call(ctx, kindTest, req)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, append([]byte{kindTest}, req...)) {
				errs <- fmt.Errorf("call %d: bad echo (%d bytes)", i, len(resp))
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.StreamsOpened(); got != 8 {
		t.Fatalf("StreamsOpened = %d, want 8", got)
	}
	if got := s.ActiveStreams(); got != 0 {
		t.Fatalf("ActiveStreams = %d after completion, want 0", got)
	}
}

func TestCallRemoteError(t *testing.T) {
	cc, sc := tcpPair(t)
	go func() { _ = Serve(sc, echoHandler, Config{}) }()
	s := Client(cc, Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := s.Call(ctx, kindTest, []byte("fail"))
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "handler refused") {
		t.Fatalf("err = %v, want RemoteError carrying the handler text", err)
	}
	// The session survives a per-stream failure.
	if resp, err := s.Call(ctx, kindTest, []byte("ok")); err != nil || string(resp[1:]) != "ok" {
		t.Fatalf("call after remote error: %q, %v", resp, err)
	}
}

// TestHalfOpenDetectedByHeartbeat is the dead-peer satellite: the peer
// holds the TCP conn open but goes silent (a half-open conn after a NAT
// timeout or a wedged process), and the heartbeat must declare it dead.
func TestHalfOpenDetectedByHeartbeat(t *testing.T) {
	cc, sc := tcpPair(t)
	_ = sc // accepted but never served: silent peer, conn stays open
	s := Client(cc, Config{KeepAlive: 20 * time.Millisecond, DeadAfter: 60 * time.Millisecond})
	defer func() { _ = s.Close() }()
	select {
	case <-s.Done():
		if err := s.Err(); !errors.Is(err, ErrDeadPeer) {
			t.Fatalf("close cause = %v, want ErrDeadPeer", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("half-open conn never detected")
	}
	// Calls on the dead session fail as closed, not hang.
	if _, err := s.Call(context.Background(), kindTest, []byte("q")); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Call on dead session = %v, want ErrSessionClosed", err)
	}
}

// TestRedialerResumesAfterConnKill is the reconnect satellite at the mux
// layer: kill the transport conn, and the next call must transparently
// re-dial and succeed.
func TestRedialerResumesAfterConnKill(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = Serve(conn, echoHandler, Config{}) }()
		}
	}()
	rd := NewRedialer(func(ctx context.Context) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", ln.Addr().String())
	})
	defer func() { _ = rd.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := rd.Call(ctx, kindTest, []byte("one")); err != nil {
		t.Fatalf("first call: %v", err)
	}
	rd.KillConn()
	resp, err := rd.Call(ctx, kindTest, []byte("two"))
	if err != nil || string(resp[1:]) != "two" {
		t.Fatalf("call after kill: %q, %v", resp, err)
	}
	if got := rd.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
}

// --- hostile peers ---

// newFrameReader reads a raw peer's frames with the session's own
// reader. A control frame's payload is valid until the next read.
func newFrameReader(r io.Reader) *Session { return &Session{br: bufio.NewReader(r)} }

// rawClient drives the server-side protocol by hand, for injecting
// frames no honest client sends.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	rd   *Session // reads conn; made on the first recv
}

func (c *rawClient) send(f Frame) {
	c.t.Helper()
	if _, err := c.conn.Write(AppendFrame(nil, f)); err != nil {
		c.t.Fatalf("raw send: %v", err)
	}
}

func (c *rawClient) recv() Frame {
	c.t.Helper()
	if c.rd == nil {
		c.rd = newFrameReader(c.conn)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.rd.readFrame()
	if err != nil {
		c.t.Fatalf("raw recv: %v", err)
	}
	return f
}

func TestServerDropsUnknownStreamFrames(t *testing.T) {
	cc, sc := tcpPair(t)
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(sc, echoHandler, Config{}) }()
	rc := &rawClient{t: t, conn: cc}
	// Data and Close for streams that were never opened: dropped, not
	// fatal — they are the tail of streams the peer already forgot.
	rc.send(Frame{Type: FrameData, Stream: 99, Payload: []byte("orphan")})
	rc.send(Frame{Type: FrameClose, Stream: 55})
	// The session must still serve a well-formed exchange.
	rc.send(Frame{Type: FrameOpen, Stream: 1, Payload: []byte{kindTest}})
	rc.send(Frame{Type: FrameData, Stream: 1, Payload: []byte("q")})
	rc.send(Frame{Type: FrameClose, Stream: 1})
	for {
		f := rc.recv()
		if f.Type == FrameData && f.Stream == 1 {
			if string(f.Payload) != string(kindTest)+"q" {
				t.Fatalf("bad echo %q", f.Payload)
			}
			break
		}
		// Pings may arrive first.
		if f.Type == FramePing {
			rc.send(Frame{Type: FramePong, Payload: f.Payload})
		}
	}
	select {
	case err := <-serveDone:
		t.Fatalf("session died on unknown-stream frames: %v", err)
	default:
	}
}

func TestServerKillsConnOnOversizeFrame(t *testing.T) {
	cc, sc := tcpPair(t)
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(sc, echoHandler, Config{}) }()
	hdr := make([]byte, headerLen)
	hdr[0] = FrameData
	binary.BigEndian.PutUint32(hdr[2:6], 1)
	binary.BigEndian.PutUint32(hdr[6:10], MaxFramePayload+1)
	if _, err := cc.Write(hdr); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("close cause = %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversize frame did not kill the session")
	}
}

func TestServerKillsConnOnDuplicateStreamOpen(t *testing.T) {
	cc, sc := tcpPair(t)
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(sc, echoHandler, Config{}) }()
	rc := &rawClient{t: t, conn: cc}
	rc.send(Frame{Type: FrameOpen, Stream: 1, Payload: []byte{kindTest}})
	rc.send(Frame{Type: FrameOpen, Stream: 1, Payload: []byte{kindTest}})
	select {
	case err := <-serveDone:
		if !errors.Is(err, errProtocol) {
			t.Fatalf("close cause = %v, want protocol violation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate open did not kill the session")
	}
}

func TestServerKillsConnOnPingFlood(t *testing.T) {
	cc, sc := tcpPair(t)
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(sc, echoHandler, Config{
			PingBudget: 8,
			KeepAlive:  time.Hour, // never reset the budget window
		})
	}()
	tok := []byte("floodtok")
	go func() {
		for i := 0; i < 1000; i++ {
			if _, err := cc.Write(AppendFrame(nil, Frame{Type: FramePing, Payload: tok})); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-serveDone:
		if !errors.Is(err, ErrPingFlood) {
			t.Fatalf("close cause = %v, want ErrPingFlood", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping flood did not kill the session")
	}
}

// TestTooManyStreamsRefusedPerStream: the cap rejects the excess stream
// with a per-stream error and the session (and its other streams) live.
func TestTooManyStreamsRefusedPerStream(t *testing.T) {
	block := make(chan struct{})
	handler := func(_ context.Context, _ byte, req []byte) ([]byte, error) {
		if string(req) == "block" {
			<-block
		}
		return req, nil
	}
	cc, sc := tcpPair(t)
	go func() { _ = Serve(sc, handler, Config{MaxStreams: 1}) }()
	s := Client(cc, Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Call(ctx, kindTest, []byte("block"))
		blocked <- err
	}()
	// Wait for the first stream to occupy the server's only slot, then
	// the second call must be refused remotely but cleanly.
	var err error
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		_, err = s.Call(ctx, kindTest, []byte("x"))
		if err != nil {
			break
		}
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "too many") {
		t.Fatalf("excess stream error = %v, want remote too-many-streams", err)
	}
	close(block)
	if err := <-blocked; err != nil {
		t.Fatalf("first stream should have survived the refusal: %v", err)
	}
}

// TestOversizeRequestAbortsOnlyItsStream: the request cap is what bounds
// a stream's buffer. A raw peer that pushes past it on one stream gets an
// abortive close naming the cap; a sibling stream opened before and
// finished after completes, and the session serves on.
func TestOversizeRequestAbortsOnlyItsStream(t *testing.T) {
	cc, sc := tcpPair(t)
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(sc, echoHandler, Config{}) }()
	rc := &rawClient{t: t, conn: cc}
	rc.send(Frame{Type: FrameOpen, Stream: 1, Payload: []byte{kindTest}})
	rc.send(Frame{Type: FrameOpen, Stream: 3, Payload: []byte{kindTest}})
	rc.send(Frame{Type: FrameData, Stream: 3, Payload: []byte("sibling")})
	chunk := make([]byte, MaxFramePayload)
	for sent := 0; sent <= maxRequest; sent += len(chunk) {
		rc.send(Frame{Type: FrameData, Stream: 1, Payload: chunk})
	}
	rc.send(Frame{Type: FrameClose, Stream: 1}) // the tail of an aborted stream: dropped
	rc.send(Frame{Type: FrameClose, Stream: 3})
	var aborted, echoed, finished bool
	for !aborted || !finished {
		switch f := rc.recv(); {
		case f.Stream == 1 && f.Type == FrameClose:
			want := fmt.Sprintf("%d-byte cap", maxRequest)
			if f.Flags&FlagError == 0 || !strings.Contains(string(f.Payload), want) {
				t.Fatalf("oversize stream closed with flags %x, %q; want an abortive close naming the %s", f.Flags, f.Payload, want)
			}
			aborted = true
		case f.Stream == 1:
			t.Fatalf("oversize stream got a %x frame, want only its abortive close", f.Type)
		case f.Stream == 3 && f.Type == FrameData:
			echoed = string(f.Payload) == string(kindTest)+"sibling"
		case f.Stream == 3 && f.Type == FrameClose:
			if f.Flags&FlagError != 0 || !echoed {
				t.Fatalf("sibling stream closed with %q (echoed %v), want its echo and a clean close", f.Payload, echoed)
			}
			finished = true
		}
	}
	rc.send(Frame{Type: FrameOpen, Stream: 5, Payload: []byte{kindTest}})
	rc.send(Frame{Type: FrameData, Stream: 5, Payload: []byte("after")})
	rc.send(Frame{Type: FrameClose, Stream: 5})
	if f := rc.recv(); f.Stream != 5 || f.Type != FrameData || string(f.Payload) != string(kindTest)+"after" {
		t.Fatalf("call after the abort got %+v, want its echo", f)
	}
	select {
	case err := <-serveDone:
		t.Fatalf("session died on an oversize stream: %v", err)
	default:
	}
}

// --- handler workers ---

// servePair runs a serving session and a client over a TCP pair, both on
// the default Config; the serving session is returned so a test can watch
// its workers.
func servePair(t *testing.T, h Handler) (srv, cli *Session) {
	cc, sc := tcpPair(t)
	srv = newSession(sc, Config{}, false, h)
	go func() { _ = srv.readLoop() }()
	cli = Client(cc, Config{})
	t.Cleanup(func() { _ = cli.Close(); _ = srv.Close() })
	return srv, cli
}

// eventually polls cond until it holds or five seconds pass.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// blockedBurst makes n concurrent calls whose handler blocks until all n
// are inside it, then releases them and waits for every reply. It fails
// the test if a request waits for another one's handler to return.
func blockedBurst(t *testing.T, n int) (srv, cli *Session) {
	t.Helper()
	var entered atomic.Int32
	release := make(chan struct{})
	srv, cli = servePair(t, func(_ context.Context, _ byte, req []byte) ([]byte, error) {
		entered.Add(1)
		<-release
		return req, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cli.Call(ctx, kindTest, []byte("q"))
			errs <- err
		}()
	}
	all := eventually(func() bool { return entered.Load() == int32(n) })
	close(release)
	if !all {
		t.Fatalf("%d of %d concurrent calls reached the handler while it blocked", entered.Load(), n)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return srv, cli
}

// TestBlockedHandlerQueuesNoRequest: a handler that blocks holds its own
// worker only; every other request gets a worker of its own at once.
func TestBlockedHandlerQueuesNoRequest(t *testing.T) {
	blockedBurst(t, 16)
}

// parkedIn reports whether goroutine gid is blocked in a worker's park.
func parkedIn(gid string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Contains(buf, []byte("goroutine "+gid+" [select]:\nxsearch/internal/mux.(*Session).worker("))
}

// TestSequentialCallsReuseOneWorker: calls one after another are served by
// one goroutine. Its reply leaves before it parks, so each call waits for
// that goroutine to park before the next goes out.
func TestSequentialCallsReuseOneWorker(t *testing.T) {
	var (
		mu   sync.Mutex
		gids = map[string]bool{}
		last string
	)
	_, cli := servePair(t, func(_ context.Context, _ byte, req []byte) ([]byte, error) {
		var buf [64]byte
		first := bytes.Fields(buf[:runtime.Stack(buf[:], false)]) // goroutine <id> [running]:
		mu.Lock()
		last = string(first[1])
		gids[last] = true
		mu.Unlock()
		return req, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, err := cli.Call(ctx, kindTest, []byte("q")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		mu.Lock()
		gid := last
		mu.Unlock()
		if !eventually(func() bool { return parkedIn(gid) }) {
			t.Fatalf("call %d: worker goroutine %s never parked", i, gid)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gids) != 1 {
		t.Fatalf("100 sequential calls ran on %d goroutines, want 1", len(gids))
	}
}

// TestIdleWorkersBoundedThenGone: after a burst drains, at most
// maxIdleWorkers workers stay parked, and none outlives the session.
func TestIdleWorkersBoundedThenGone(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, cli := blockedBurst(t, 64)
	// Four session goroutines: each side's readLoop and keepalive.
	if !eventually(func() bool { return runtime.NumGoroutine() <= before+4+maxIdleWorkers }) {
		t.Fatalf("%d goroutines after the burst drained, want at most %d session + %d parked workers over %d",
			runtime.NumGoroutine(), 4, maxIdleWorkers, before)
	}
	_ = cli.Close()
	_ = srv.Close()
	if !eventually(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("%d goroutines after Close, %d before the session", runtime.NumGoroutine(), before)
	}
}
