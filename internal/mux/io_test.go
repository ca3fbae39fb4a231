package mux

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// The session's I/O cost is pinned here as counts, not timings: conn
// writes and reads per exchange, and on every write the frame shape the
// peer's codec accepts.

// countingConn wraps one end of a conn and counts the Write and
// (data-returning) Read calls that cross it. Every Write must decode into
// whole frames the codec accepts and stay within one frame's bytes.
type countingConn struct {
	net.Conn

	mu        sync.Mutex
	writes    int
	reads     int
	violation string
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	// The session writes whole frames, so p decodes exactly.
	for b := p; len(b) > 0; {
		_, n, err := DecodeFrame(b, MaxFramePayload)
		if err != nil {
			c.violation = fmt.Sprintf("a Write holds a refused frame or ends mid-frame: %v", err)
			break
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
		c.mu.Unlock()
	}
	return n, err
}

type ioCounts struct{ writes, reads int }

func (c *countingConn) snapshot(t *testing.T) ioCounts {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.violation != "" {
		t.Fatal(c.violation)
	}
	return ioCounts{c.writes, c.reads}
}

func countedPair(t *testing.T) (client, server *countingConn) {
	cc, sc := tcpPair(t)
	return &countingConn{Conn: cc}, &countingConn{Conn: sc}
}

// TestSmallCallIsOneWritePerDirection: OPEN+DATA+CLOSE leave in one write
// and arrive in one read, the reply's DATA+CLOSE likewise, and nothing
// else crosses the conn (before write coalescing: 4 and 3 writes, 5 and 5
// reads, one flow-control frame each way).
func TestSmallCallIsOneWritePerDirection(t *testing.T) {
	cc, sc := countedPair(t)
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
		{Type: FramePing, Payload: []byte("12345678")},
		{Type: FrameClose, Flags: FlagError, Stream: 3, Payload: []byte("boom")},
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

// TestLargeReplyCrossesChunks: with every Config default on both ends, a
// reply of three frames and a bit crosses chunk boundaries on the worker's
// send, arrives byte-exact, and no write exceeds one frame.
func TestLargeReplyCrossesChunks(t *testing.T) {
	reply := make([]byte, 3*MaxFramePayload+7)
	for i := range reply {
		reply[i] = byte(i ^ i>>8 ^ i>>16)
	}
	cc, sc := countedPair(t)
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
	if w := sc.snapshot(t).writes; w < 4 {
		t.Errorf("a reply of three frames and a bit left in %d writes, want one per chunk", w)
	}
	cc.snapshot(t)
}
