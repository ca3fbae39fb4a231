package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"xsearch/internal/mux"
	"xsearch/internal/proxy"
)

// The mux front is the gateway's multiplexed client edge: one long-lived
// framed TCP connection per broker host carries every logical stream —
// handshakes, sealed records, heartbeats — instead of one HTTP connection
// per request. Stream kinds dispatch onto the same Handshake/Secure
// methods the HTTP handlers use, through proxy.ServeCall, so a handshake
// or secure stream carries exactly the body of its HTTP route and a mux
// client is indistinguishable from an HTTP one past the edge. Like the
// HTTP front, the edge carries sealed calls only: any other kind is that
// stream's refusal, never the session's.

// muxFront is the gateway's mux-edge state, embedded in Gateway.
type muxFront struct {
	muxMu     sync.Mutex
	muxLn     net.Listener
	muxClosed bool // set by muxStop: the edge never reopens
	muxConns  map[net.Conn]struct{}
	muxWG     sync.WaitGroup

	muxAccepted atomic.Uint64
	muxActive   atomic.Int64
	muxStreams  atomic.Uint64
}

var errMuxStarted = errors.New("already started")

// StartMux serves the raw-TCP mux edge on addr ("127.0.0.1:0" picks a
// port). It fails once the edge is running, and after Shutdown.
func (g *Gateway) StartMux(addr string) error {
	g.muxMu.Lock()
	defer g.muxMu.Unlock()
	switch {
	case g.muxClosed:
		return fmt.Errorf("fleet: gateway shut down")
	case g.muxLn != nil:
		return fmt.Errorf("fleet: mux listener %w", errMuxStarted)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: mux listen: %w", err)
	}
	g.muxLn = ln
	g.muxWG.Add(1)
	go g.acceptMux(ln)
	return nil
}

// MuxAddr returns the raw-TCP mux listener's bound address while the edge
// runs ("" before StartMux and after Shutdown).
func (g *Gateway) MuxAddr() string {
	g.muxMu.Lock()
	defer g.muxMu.Unlock()
	if g.muxLn == nil {
		return ""
	}
	return g.muxLn.Addr().String()
}

func (g *Gateway) acceptMux(ln net.Listener) {
	defer g.muxWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed by muxStop, or fatal; either way the edge
			// is done accepting.
			return
		}
		g.muxWG.Add(1)
		go func() {
			defer g.muxWG.Done()
			g.serveMuxConn(conn)
		}()
	}
}

// serveMuxConn runs one mux session to completion, tracking the conn for
// shutdown and the conn counters for Stats. A conn accepted as
// muxStop ran is closed unserved: muxStop's snapshot never saw it.
func (g *Gateway) serveMuxConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	g.muxMu.Lock()
	if g.muxClosed {
		g.muxMu.Unlock()
		return
	}
	if g.muxConns == nil {
		g.muxConns = make(map[net.Conn]struct{})
	}
	g.muxConns[conn] = struct{}{}
	g.muxMu.Unlock()
	g.muxAccepted.Add(1)
	g.muxActive.Add(1)
	defer func() {
		g.muxActive.Add(-1)
		g.muxMu.Lock()
		delete(g.muxConns, conn)
		g.muxMu.Unlock()
	}()
	_ = mux.Serve(conn, g.serveMuxRequest, mux.Config{})
}

// serveMuxRequest serves one completed stream as the call its kind names.
// A malformed body or an unknown kind is the stream's error, never the
// session's.
func (g *Gateway) serveMuxRequest(ctx context.Context, kind byte, req []byte) ([]byte, error) {
	g.muxStreams.Add(1)
	return proxy.ServeCall(ctx, g, kind, req)
}

// muxStop tears the mux edge down for good: stop accepting, close every
// live conn (in-flight streams fail with session-closed; brokers re-dial
// or fall back), and wait for the serve goroutines.
func (g *Gateway) muxStop() {
	g.muxMu.Lock()
	g.muxClosed = true
	if g.muxLn != nil {
		_ = g.muxLn.Close()
		g.muxLn = nil
	}
	conns := make([]net.Conn, 0, len(g.muxConns))
	for c := range g.muxConns {
		conns = append(conns, c)
	}
	g.muxMu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	g.muxWG.Wait()
}
