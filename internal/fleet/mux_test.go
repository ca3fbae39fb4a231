package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"xsearch/internal/mux"
	"xsearch/internal/proxy"
	"xsearch/internal/securechannel"
)

// muxHandshake runs one handshake stream on s — a fresh client offer and
// nonce, as a broker sends them — and checks that the gateway minted a
// session.
func muxHandshake(ctx context.Context, t *testing.T, s *mux.Session) {
	t.Helper()
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		t.Fatalf("NewHandshake: %v", err)
	}
	offer, err := hs.Offer().Marshal()
	if err != nil {
		t.Fatalf("offer: %v", err)
	}
	body, err := json.Marshal(struct {
		Offer json.RawMessage `json:"offer"`
		Nonce []byte          `json:"nonce"`
	}{offer, make([]byte, 16)})
	if err != nil {
		t.Fatalf("handshake body: %v", err)
	}
	resp, err := s.Call(ctx, mux.KindHandshake, body)
	if err != nil {
		t.Fatalf("handshake over mux: %v", err)
	}
	var hr proxy.HandshakeResponse
	if err := json.Unmarshal(resp, &hr); err != nil || hr.Session == "" {
		t.Fatalf("handshake reply %q: %v", resp, err)
	}
}

// TestMuxReconnectResumesSecureSession is the mux edge's core promise:
// kill the transport conn mid-secure-session, and the broker must resume
// on a re-dialed conn with the SAME attested session — zero lost replies,
// zero re-attestations — with the enclave-side query history spanning the
// reconnect.
func TestMuxReconnectResumesSecureSession(t *testing.T) {
	// The raw-TCP mux is the one carrier the broker dials.
	t.Run("mux", func(t *testing.T) {
		g, b := edgeStack(t)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := 0; i < 5; i++ {
			if _, err := b.Search(ctx, fmt.Sprintf("pre-kill query %d", i)); err != nil {
				t.Fatalf("pre-kill search %d: %v", i, err)
			}
		}
		st := g.Stats()
		if st.Handshakes != 1 {
			t.Fatalf("handshakes before kill = %d, want 1", st.Handshakes)
		}
		if st.MuxConns == 0 {
			t.Fatalf("no mux conns held, stats: %+v", st)
		}
		historyBefore := st.Total.HistoryLen

		b.KillConn()

		// Every post-kill query must succeed over the re-dialed conn.
		for i := 0; i < 5; i++ {
			if _, err := b.Search(ctx, fmt.Sprintf("post-kill query %d", i)); err != nil {
				t.Fatalf("post-kill search %d: %v", i, err)
			}
		}
		if got := b.Reconnects(); got != 1 {
			t.Fatalf("Reconnects = %d, want 1", got)
		}
		st = g.Stats()
		// The resumed session never re-attested: still exactly one
		// handshake, and the gateway saw the resume announcement.
		if st.Handshakes != 1 {
			t.Fatalf("handshakes after reconnect = %d, want 1 (no re-attestation)", st.Handshakes)
		}
		if st.MuxResumes != 1 {
			t.Fatalf("MuxResumes = %d, want 1", st.MuxResumes)
		}
		// History preserved and grown across the reconnect: the
		// enclave state never depended on the carrier.
		if st.Total.HistoryLen <= historyBefore {
			t.Fatalf("history %d -> %d across reconnect; want growth", historyBefore, st.Total.HistoryLen)
		}
		if st.MuxStreams < 10 {
			t.Fatalf("MuxStreams = %d, want >= 10", st.MuxStreams)
		}
	})
}

// TestMuxDoubleStartAndStats covers the mux listener's double-Start
// error and the conn gauges' rise and fall.
func TestMuxDoubleStartAndStats(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		t.Fatalf("StartMux: %v", err)
	}
	if err := g.StartMux("127.0.0.1:0"); err == nil {
		t.Fatal("second StartMux succeeded, want error")
	}
	conn, err := net.Dial("tcp", g.MuxAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	s := mux.Client(conn, mux.Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	muxHandshake(ctx, t, s)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := g.Stats(); st.MuxConns == 1 && st.MuxConnsTotal == 1 && st.MuxStreams == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mux gauges never converged: %+v", g.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = s.Close()
	for {
		if st := g.Stats(); st.MuxConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("MuxConns never returned to 0: %+v", g.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxEdgeRefusesPlainStreams: both client edges carry sealed calls
// only. A stream of the old plain kind (0x3) fails alone with a remote
// error, the session then completes a handshake, and no plain query
// reached a shard. Neither the WebSocket route nor GET /search is left
// on the HTTP front.
func TestMuxEdgeRefusesPlainStreams(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		t.Fatalf("StartMux: %v", err)
	}
	conn, err := net.Dial("tcp", g.MuxAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	s := mux.Client(conn, mux.Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// load is every shard's request and ecall counts: what a query that
	// reached a node would move.
	load := func() []uint64 {
		var out []uint64
		for _, ss := range g.Stats().Shards {
			out = append(out, ss.Proxy.Requests, ss.Proxy.Enclave.ECalls)
		}
		return out
	}
	before := load()
	_, err = s.Call(ctx, 0x3, []byte("chicken recipe"))
	var remote *mux.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown stream kind") {
		t.Fatalf("plain stream over mux: err = %v, want a per-stream unknown-kind refusal", err)
	}
	if got := load(); !slices.Equal(got, before) {
		t.Fatalf("shard requests/ecalls %v -> %v: a plain query crossed the mux edge", before, got)
	}
	muxHandshake(ctx, t, s)
	before = load()
	for _, path := range []string{"/mux", "/search?q=chicken+recipe"} {
		resp, err := http.Get(g.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if got := load(); !slices.Equal(got, before) {
		t.Fatalf("shard requests/ecalls %v -> %v: GET /search reached the fleet", before, got)
	}
}

// TestStartMuxAfterShutdownFails: Shutdown ends the mux edge for good. A
// later StartMux must not bind a listener nothing closes, serving streams
// into destroyed shards.
func TestStartMuxAfterShutdownFails(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		t.Fatalf("StartMux: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := g.StartMux("127.0.0.1:0"); err == nil {
		t.Fatal("StartMux after Shutdown succeeded, want error")
	}
	if addr := g.MuxAddr(); addr != "" {
		t.Fatalf("MuxAddr after Shutdown = %q, want \"\"", addr)
	}
}

// TestGatewayShutdownNotStalledBySpareConns is the chaos-soak
// shutdown-deadline regression at the fleet level: connections the HTTP
// transport dialed but never used (server-side StateNew) must not hold
// Shutdown for net/http's 5-second grace, and live mux conns must not
// hold it at all.
func TestGatewayShutdownNotStalledBySpareConns(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		t.Fatalf("StartMux: %v", err)
	}
	// A spare HTTP conn (dialed, zero bytes) and an idle mux session.
	spare, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatalf("dial spare: %v", err)
	}
	defer func() { _ = spare.Close() }()
	mc, err := net.Dial("tcp", g.MuxAddr())
	if err != nil {
		t.Fatalf("dial mux: %v", err)
	}
	s := mux.Client(mc, mux.Config{})
	defer func() { _ = s.Close() }()
	time.Sleep(50 * time.Millisecond) // let both conns register server-side

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v; spare and mux conns should not stall it", d)
	}
}
