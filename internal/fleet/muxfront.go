package fleet

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"xsearch/internal/mux"
	"xsearch/internal/proxy"
)

// The mux front is the gateway's multiplexed client edge: one long-lived
// framed connection per client host carries every logical stream —
// handshakes, sealed records, plain queries, heartbeats — instead of one
// HTTP connection per request. Two carriers feed the same demux: a raw
// TCP listener (StartMux) for broker hosts, and a WebSocket upgrade at
// /mux on the existing HTTP front for browser-extension clients. Both
// dispatch stream kinds onto the same Handshake/Secure/ServeQuery
// methods the HTTP handlers use, so a mux client and an HTTP client are
// indistinguishable past the edge — and, since both edges hand their
// bodies to proxy.ServeCall, at it too: a handshake or secure stream
// carries exactly the body of its HTTP route, a plain one the query text.

// muxFront is the gateway's mux-edge state, embedded in Gateway.
type muxFront struct {
	muxMu    sync.Mutex
	muxLn    net.Listener
	muxConns map[io.Closer]struct{}
	muxWG    sync.WaitGroup

	muxAccepted atomic.Uint64
	muxActive   atomic.Int64
	muxStreams  atomic.Uint64
	muxResumes  atomic.Uint64
}

// StartMux serves the raw-TCP mux edge on addr ("127.0.0.1:0" picks a
// port). The WebSocket edge at /mux needs no separate start; it rides
// the HTTP front.
func (g *Gateway) StartMux(addr string) error {
	g.muxMu.Lock()
	defer g.muxMu.Unlock()
	if g.muxLn != nil {
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

var errMuxStarted = fmt.Errorf("already started")

// MuxAddr returns the raw-TCP mux listener's bound address after
// StartMux ("" before).
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

// handleMuxUpgrade is the WebSocket flavor of the same edge: an RFC 6455
// upgrade on the HTTP front whose binary messages carry mux frames.
func (g *Gateway) handleMuxUpgrade(w http.ResponseWriter, r *http.Request) {
	conn, err := mux.UpgradeWS(w, r)
	if err != nil {
		return // UpgradeWS already wrote the HTTP error
	}
	g.muxWG.Add(1)
	go func() {
		defer g.muxWG.Done()
		g.serveMuxConn(conn)
	}()
}

// serveMuxConn runs one mux session to completion, tracking the conn for
// shutdown and the stream/resume counters for Stats.
func (g *Gateway) serveMuxConn(conn io.ReadWriteCloser) {
	g.muxMu.Lock()
	if g.muxConns == nil {
		g.muxConns = make(map[io.Closer]struct{})
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
		_ = conn.Close()
	}()
	cfg := g.cfg.MuxConfig
	cfg.OnResume = func(sessions int) {
		// A reconnecting client announcing live sessions is the signal the
		// resume path worked: those sessions ride the new conn with no
		// re-attestation (their channel keys never left the enclave).
		g.muxResumes.Add(uint64(sessions))
	}
	_ = mux.Serve(conn, g.serveMuxRequest, cfg)
}

// serveMuxRequest serves one completed stream as the call its kind names.
// A malformed body is the stream's error, never the session's.
func (g *Gateway) serveMuxRequest(ctx context.Context, kind byte, req []byte) ([]byte, error) {
	g.muxStreams.Add(1)
	var query string
	if kind == mux.KindPlain {
		query = strings.TrimSpace(string(req))
	}
	return proxy.ServeCall(ctx, g, kind, query, req)
}

// muxStop tears the mux edge down: stop accepting, close every live
// conn (in-flight streams fail with session-closed; brokers re-dial or
// fall back), and wait for the serve goroutines.
func (g *Gateway) muxStop() {
	g.muxMu.Lock()
	if g.muxLn != nil {
		_ = g.muxLn.Close()
		g.muxLn = nil
	}
	conns := make([]io.Closer, 0, len(g.muxConns))
	for c := range g.muxConns {
		conns = append(conns, c)
	}
	g.muxMu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	g.muxWG.Wait()
}
