package mux

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// The session's I/O cost is pinned here as counts, not timings: conn
// writes and reads per exchange, WINDOW frames per transfer, and the
// flow-control invariant checked on the wire.

// countingConn wraps one end of a conn and accounts what crosses it: the
// Write and (data-returning) Read calls, and — by decoding the frames in
// both directions — the WINDOW frames each way and, per stream, how many
// DATA bytes this end has written that the peer has not yet credited back.
type countingConn struct {
	net.Conn
	window int // the sender's bound on unacknowledged bytes; 0 = unchecked

	mu         sync.Mutex
	writes     int
	reads      int
	windowsOut int
	windowsIn  int
	unacked    map[uint32]int
	rbuf       []byte
	violation  string
}

func newCountingConn(c net.Conn, window int) *countingConn {
	return &countingConn{Conn: c, window: window, unacked: make(map[uint32]int)}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	// The session writes whole frames, so p decodes exactly.
	for b := p; len(b) > 0; {
		f, n, err := DecodeFrame(b, MaxFramePayload)
		if err != nil {
			c.violation = fmt.Sprintf("a Write ends mid-frame: %v", err)
			break
		}
		switch f.Type {
		case FrameWindow:
			c.windowsOut++
		case FrameData:
			c.unacked[f.Stream] += len(f.Payload)
			if c.window > 0 && c.unacked[f.Stream] > c.window {
				c.violation = fmt.Sprintf("stream %d: %d unacknowledged bytes in flight, window %d",
					f.Stream, c.unacked[f.Stream], c.window)
			}
		}
		b = b[n:]
	}
	if len(p) > headerLen+MaxFramePayload {
		c.violation = fmt.Sprintf("one Write of %d bytes exceeds headerLen+MaxFramePayload", len(p))
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.reads++
		c.rbuf = append(c.rbuf, p[:n]...)
		for {
			f, used, derr := DecodeFrame(c.rbuf, MaxFramePayload)
			if derr != nil {
				break // incomplete frame: wait for more bytes
			}
			if f.Type == FrameWindow {
				c.windowsIn++
				c.unacked[f.Stream] -= int(binary.BigEndian.Uint32(f.Payload))
			}
			c.rbuf = c.rbuf[used:]
		}
		c.mu.Unlock()
	}
	return n, err
}

type ioCounts struct{ writes, reads, windowsOut, windowsIn int }

func (c *countingConn) snapshot(t *testing.T) ioCounts {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.violation != "" {
		t.Fatal(c.violation)
	}
	return ioCounts{c.writes, c.reads, c.windowsOut, c.windowsIn}
}

func countedPair(t *testing.T, window int) (client, server *countingConn) {
	cc, sc := tcpPair(t)
	return newCountingConn(cc, window), newCountingConn(sc, window)
}

// TestSmallCallIsOneWritePerDirection: OPEN+DATA+CLOSE leave in one write
// and arrive in one read, the reply's DATA+CLOSE likewise, and an exchange
// far below half a window returns no credit at all (the parent commit:
// 4 and 3 writes, 5 and 5 reads, one WINDOW each way).
func TestSmallCallIsOneWritePerDirection(t *testing.T) {
	cc, sc := countedPair(t, 0)
	go func() { _ = Serve(sc, echoHandler, Config{}) }()
	s := Client(cc, Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// One warm-up call, then count a steady-state one.
	for i := 0; i < 2; i++ {
		beforeC, beforeS := cc.snapshot(t), sc.snapshot(t)
		req := bytes.Repeat([]byte("r"), 300)
		resp, err := s.Call(ctx, KindSecure, req)
		if err != nil || !bytes.Equal(resp[1:], req) {
			t.Fatalf("call: %d bytes, %v", len(resp), err)
		}
		afterC, afterS := cc.snapshot(t), sc.snapshot(t)
		if w := afterC.writes - beforeC.writes; w != 1 {
			t.Errorf("call %d: client issued %d conn writes, want 1", i, w)
		}
		if w := afterS.writes - beforeS.writes; w != 1 {
			t.Errorf("call %d: server issued %d conn writes, want 1", i, w)
		}
		if r := afterS.reads - beforeS.reads; r != 1 {
			t.Errorf("call %d: server needed %d conn reads for the request, want 1", i, r)
		}
		if r := afterC.reads - beforeC.reads; r != 1 {
			t.Errorf("call %d: client needed %d conn reads for the reply, want 1", i, r)
		}
		if n := afterC.windowsOut + afterC.windowsIn; n != 0 {
			t.Errorf("call %d: %d WINDOW frames on a small exchange, want 0", i, n)
		}
	}
}

// TestLargeTransferCreditIsLazyAndBounded: three windows of data each way
// need a handful of WINDOW frames, not one per DATA frame, and neither
// sender ever has more than a window unacknowledged (the conns assert it
// on every DATA frame written).
func TestLargeTransferCreditIsLazyAndBounded(t *testing.T) {
	const window = 64 << 10
	cfg := Config{Window: window}
	cc, sc := countedPair(t, window)
	go func() { _ = Serve(sc, echoHandler, cfg) }()
	s := Client(cc, cfg)
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := bytes.Repeat([]byte("0123456789abcdef"), 3*window/16)
	resp, err := s.Call(ctx, kindTest, req)
	if err != nil || !bytes.Equal(resp[1:], req) {
		t.Fatalf("call: %d bytes, %v", len(resp), err)
	}
	c, sv := cc.snapshot(t), sc.snapshot(t)
	if sv.windowsOut == 0 || sv.windowsOut > 6 {
		t.Errorf("server returned credit in %d WINDOW frames for a 3-window request, want 1..6", sv.windowsOut)
	}
	if c.windowsOut == 0 || c.windowsOut > 6 {
		t.Errorf("client returned credit in %d WINDOW frames for a 3-window reply, want 1..6", c.windowsOut)
	}
}

// TestWithheldCreditStallsSender: backpressure survives the lazy rule — a
// receiver that returns no credit gets exactly one window of data, and the
// sender resumes when (and only as far as) credit arrives.
func TestWithheldCreditStallsSender(t *testing.T) {
	const window = 32 << 10
	cc, sc := tcpPair(t)
	s := Client(cc, Config{Window: window})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	callDone := make(chan error, 1)
	go func() {
		_, err := s.Call(ctx, kindTest, make([]byte, 2*window))
		callDone <- err
	}()

	// readData collects DATA bytes from the client until the conn stays
	// silent for the grace period.
	rd := newFrameReader(sc)
	readData := func(grace time.Duration) (got int, closed bool) {
		for {
			_ = sc.SetReadDeadline(time.Now().Add(grace))
			f, err := rd.readFrame()
			if err != nil {
				return got, closed
			}
			switch f.Type {
			case FrameData:
				got += len(f.Payload)
			case FrameClose:
				closed = true
			}
		}
	}
	if got, closed := readData(200 * time.Millisecond); got != window || closed {
		t.Fatalf("with no credit returned the sender wrote %d bytes (closed=%v), want exactly the %d-byte window", got, closed, window)
	}
	var grant [4]byte
	binary.BigEndian.PutUint32(grant[:], 1000)
	if _, err := sc.Write(AppendFrame(nil, Frame{Type: FrameWindow, Stream: 1, Payload: grant[:]})); err != nil {
		t.Fatal(err)
	}
	if got, closed := readData(200 * time.Millisecond); got != 1000 || closed {
		t.Fatalf("after a 1000-byte grant the sender wrote %d bytes (closed=%v), want 1000", got, closed)
	}
	binary.BigEndian.PutUint32(grant[:], window)
	if _, err := sc.Write(AppendFrame(nil, Frame{Type: FrameWindow, Stream: 1, Payload: grant[:]})); err != nil {
		t.Fatal(err)
	}
	if got, closed := readData(200 * time.Millisecond); got != window-1000 || !closed {
		t.Fatalf("after the final grant the sender wrote %d bytes (closed=%v), want %d and the CLOSE", got, closed, window-1000)
	}
	if _, err := sc.Write(AppendFrame(nil, Frame{Type: FrameClose, Stream: 1})); err != nil {
		t.Fatal(err)
	}
	if err := <-callDone; err != nil {
		t.Fatalf("call: %v", err)
	}
}

// TestFinishedStreamGetsNoWindow: credit owed to a peer that has already
// finished writing is never sent — not for the bytes below the half-window
// threshold it finished with, and not for bytes that arrive after its
// CLOSE.
func TestFinishedStreamGetsNoWindow(t *testing.T) {
	const window = 16 << 10
	cc, sc := tcpPair(t)
	go func() { _ = Serve(sc, echoHandler, Config{Window: window}) }()
	rc := &rawClient{t: t, conn: cc}
	rc.send(Frame{Type: FrameOpen, Stream: 1, Payload: []byte{kindTest}})
	rc.send(Frame{Type: FrameData, Stream: 1, Payload: make([]byte, window/2-1)})
	rc.send(Frame{Type: FrameClose, Stream: 1})
	rc.send(Frame{Type: FrameData, Stream: 1, Payload: make([]byte, window)})
	tok := []byte("flushtok")
	rc.send(Frame{Type: FramePing, Payload: tok})
	var replied, ponged bool
	for !replied || !ponged {
		switch f := rc.recv(); f.Type {
		case FrameWindow:
			t.Fatalf("WINDOW of %d bytes for stream %d, whose peer had finished",
				binary.BigEndian.Uint32(f.Payload), f.Stream)
		case FrameClose:
			replied = f.Stream == 1
		case FramePong:
			ponged = bytes.Equal(f.Payload, tok)
		}
	}
}

// TestSessionReadFrameAgreesWithDecodeFrame: the session's in-place frame
// reader accepts, frame for frame, exactly what the codec decodes, and
// reports a conn that dies anywhere inside a frame as an error.
func TestSessionReadFrameAgreesWithDecodeFrame(t *testing.T) {
	frames := []Frame{
		{Type: FrameOpen, Stream: 1, Payload: []byte{KindSecure}},
		{Type: FrameData, Stream: 1, Payload: bytes.Repeat([]byte("x"), 3*4096+7)},
		{Type: FrameClose, Stream: 1},
		{Type: FrameWindow, Stream: 1, Payload: []byte{0, 1, 0, 0}},
		{Type: FramePing, Payload: []byte("12345678")},
		{Type: FrameClose, Flags: FlagError, Stream: 3, Payload: []byte("boom")},
		{Type: FrameResume, Payload: []byte{0, 0, 0, 2}},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	s := &Session{br: bufio.NewReader(bytes.NewReader(wire))}
	for i, want := range frames {
		got, err := s.readFrame()
		if err != nil || got.Type != want.Type || got.Flags != want.Flags || got.Stream != want.Stream ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, %v", i, got, err)
		}
	}
	if _, err := s.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(wire); cut += 97 {
		s := &Session{br: bufio.NewReader(bytes.NewReader(wire[:cut]))}
		var err error
		for err == nil {
			_, err = s.readFrame()
		}
		// A cut on a frame boundary is a clean EOF; anywhere else it is not.
		onBoundary := false
		for b, rest := 0, wire; b <= cut && len(rest) > 0; {
			_, n, _ := DecodeFrame(rest, MaxFramePayload)
			b, rest = b+n, rest[n:]
			onBoundary = onBoundary || b == cut
		}
		if (err == io.EOF) != onBoundary {
			t.Fatalf("cut at %d (frame boundary: %v): err = %v", cut, onBoundary, err)
		}
	}
}

// TestLargeReplyUnderDefaultWindow: with every Config default on both
// ends, a reply of three frames and a bit crosses chunk and credit
// boundaries on the worker's send, arrives byte-exact, and never has more
// than the default window unacknowledged on the wire.
func TestLargeReplyUnderDefaultWindow(t *testing.T) {
	reply := make([]byte, 3*MaxFramePayload+7)
	for i := range reply {
		reply[i] = byte(i ^ i>>8 ^ i>>16)
	}
	cc, sc := countedPair(t, 256<<10)
	go func() {
		_ = Serve(sc, func(context.Context, byte, []byte) ([]byte, error) { return reply, nil }, Config{})
	}()
	s := Client(cc, Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.Call(ctx, KindSecure, []byte("q"))
	if err != nil || !bytes.Equal(resp, reply) {
		t.Fatalf("call: %d of %d bytes back, %v", len(resp), len(reply), err)
	}
	c, _ := cc.snapshot(t), sc.snapshot(t)
	if c.windowsOut == 0 {
		t.Errorf("a reply of three windows arrived with no credit returned")
	}
}
