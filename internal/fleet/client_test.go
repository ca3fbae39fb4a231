package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/client"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/mux"
	"xsearch/internal/proxy"
)

// Tests for internal/client's one retry rule and its in-process caller,
// driven through a gateway.

func gatewayVerifier(g *Gateway) attestation.Verifier {
	return attestation.Verifier{ServiceKey: g.AttestationService().PublicKey(),
		Policy: attestation.Policy{AcceptedMeasurements: []enclave.Measurement{g.Measurement()}}}
}

// On the mux edge a refusal and a lost conn recover differently: a secure
// call the gateway refuses because its session's shard was killed costs
// exactly one re-attestation, onto a live shard; a conn the broker loses
// costs none, only a re-dial.
func TestOneRetryRuleOnTheMuxEdge(t *testing.T) {
	for _, tc := range []struct {
		name       string
		fail       func(*Gateway, *broker.Broker) error
		reattests  uint64
		reconnects uint64
	}{
		{"shard killed", func(g *Gateway, _ *broker.Broker) error { return g.Kill(context.Background(), 0) }, 1, 0},
		{"conn killed", func(_ *Gateway, b *broker.Broker) error { b.KillConn(); return nil }, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := echoFleet(t, 2, time.Hour)
			if err := g.Start("127.0.0.1:0"); err != nil {
				t.Fatalf("Start: %v", err)
			}
			if err := g.StartMux("127.0.0.1:0"); err != nil {
				t.Fatalf("StartMux: %v", err)
			}
			b, on := connectOnShard(t, g, "mux")
			if on != 0 {
				t.Fatalf("the first session on a fresh fleet landed on shard %d, want 0", on)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := b.Search(ctx, "before the failure"); err != nil {
				t.Fatalf("search before: %v", err)
			}
			before := g.Stats().Handshakes
			if err := tc.fail(g, b); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Search(ctx, "after the failure"); err != nil {
				t.Fatalf("search after: %v", err)
			}
			if got := g.Stats().Handshakes - before; got != tc.reattests {
				t.Errorf("re-attestations = %d, want %d", got, tc.reattests)
			}
			if got := b.Reconnects(); got != tc.reconnects {
				t.Errorf("re-dials = %d, want %d", got, tc.reconnects)
			}
		})
	}
}

// faultyFront attests through the gateway it wraps but fails every secure
// call with err: a BadRequest is the caller's fault, any other error the
// front's refusal.
type faultyFront struct {
	*Gateway
	err error
}

func (f faultyFront) SecureCall(context.Context, []byte, []byte) ([]byte, error) { return nil, f.err }

// searcher is what a broker and a client.Client have in common.
type searcher interface {
	Connect(context.Context) error
	Search(context.Context, string) ([]core.Result, error)
}

// searchers returns a client of f over HTTP and over mux (brokers), and
// one in process.
func searchers(t *testing.T, g *Gateway, f proxy.Front) map[string]searcher {
	routes := http.NewServeMux()
	proxy.HandleFront(routes, f)
	srv := httptest.NewServer(routes)
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				_ = mux.Serve(conn, func(ctx context.Context, kind byte, body []byte) ([]byte, error) {
					return proxy.ServeCall(ctx, f, kind, body)
				}, mux.Config{})
			}()
		}
	}()
	out := map[string]searcher{"in-process": client.New(proxy.InProcess{Front: f}, gatewayVerifier(g), 0)}
	for _, transport := range []string{"http", "mux"} {
		b, err := broker.New(broker.Config{ProxyURL: srv.URL, ServiceKey: g.AttestationService().PublicKey(),
			Policy: gatewayVerifier(g).Policy, Transport: transport, MuxAddr: ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		out[transport] = b
	}
	return out
}

// A front that attests but refuses every secure call is re-attested at most
// client.MaxReattests times, and not past the context: with no deadline
// Search returns the refusal, as ErrProxyStatus, after exactly that many
// re-attestations (backing off, about half a second); under a 200 ms
// deadline it returns it by the deadline after at least one — over HTTP,
// over mux and in process alike. Every client runs with no deadline before
// any runs with one: a handshake a deadline cut off on the edge may still
// complete on the gateway, and it must not land in an exact count.
func TestRefusingFrontEndsAtTheDeadline(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	clients := searchers(t, g, faultyFront{g, errors.New("faultyFront: refused")})
	for _, deadline := range []time.Duration{0, 200 * time.Millisecond} {
		for name, c := range clients {
			t.Run(fmt.Sprintf("%s deadline %v", name, deadline), func(t *testing.T) {
				if err := c.Connect(context.Background()); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if deadline > 0 {
					ctx, cancel = context.WithTimeout(context.Background(), deadline)
				}
				defer cancel()
				before, start := g.Stats().Handshakes, time.Now()
				_, err := c.Search(ctx, "never served")
				took := time.Since(start)
				if !errors.Is(err, broker.ErrProxyStatus) {
					t.Fatalf("Search = %v, want the refusal as ErrProxyStatus", err)
				}
				if deadline > 0 && took > deadline+300*time.Millisecond {
					t.Errorf("Search returned %v after it started, past its %v deadline", took, deadline)
				}
				n := g.Stats().Handshakes - before
				t.Logf("%d re-attestations in %v", n, took)
				if n > client.MaxReattests || n < 1 || deadline == 0 && n != client.MaxReattests {
					t.Errorf("%d re-attestations in %v, want 1 to %d (all of them with no deadline)", n, took, client.MaxReattests)
				}
			})
		}
	}
}

// A failure that is the caller's own costs no re-attestation and is not a
// refusal, even with no deadline: a front's BadRequest (an HTTP 400, a mux
// close with FlagCallerFault) and a query whose sealed body is over client.MaxBodyBytes, which
// the client refuses before any call on every carrier, and whose session
// then serves the next query.
func TestCallersFaultIsNotReattested(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		t.Fatalf("StartMux: %v", err)
	}
	overCap := strings.Repeat("q", client.MaxBodyBytes)
	type call struct {
		c     searcher
		query string
	}
	cases := map[string]call{
		"over cap http":       {connectedBroker(t, g, "http"), overCap},
		"over cap mux":        {connectedBroker(t, g, "mux"), overCap},
		"over cap in-process": {client.New(proxy.InProcess{Front: g}, gatewayVerifier(g), 0), overCap},
	}
	for name, c := range searchers(t, g, faultyFront{g, proxy.BadRequest("faultyFront: bad request")}) {
		cases["bad request "+name] = call{c, "a query"}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := tc.c.Connect(ctx); err != nil {
				t.Fatal(err)
			}
			before := g.Stats().Handshakes
			_, err := tc.c.Search(ctx, tc.query)
			if err == nil || errors.Is(err, broker.ErrProxyStatus) {
				t.Fatalf("Search = %v, want the caller's own error, not a refusal", err)
			}
			if tc.query == overCap {
				if _, err := tc.c.Search(ctx, "a query"); err != nil {
					t.Errorf("the next search: %v", err)
				}
			}
			if n := g.Stats().Handshakes - before; n != 0 {
				t.Errorf("%d re-attestations, want none", n)
			}
		})
	}
}

// Sessions a client in the same process opens through the gateway are
// minted there like a broker's: N of them raise Σ ShardStats.Sessions and
// Stats.Handshakes by N, spread the way pick ranks shards (fewest first,
// the lowest index on a tie), and each one serves its searches.
func TestInProcessSessionsAreMintedByTheGateway(t *testing.T) {
	const n = 7
	g := echoFleet(t, 3, time.Hour)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		c := client.New(proxy.InProcess{Front: g}, gatewayVerifier(g), 0)
		if err := c.Connect(ctx); err != nil {
			t.Fatalf("Connect %d: %v", i, err)
		}
		if _, err := c.Search(ctx, fmt.Sprintf("in-process query %d", i)); err != nil {
			t.Fatalf("Search %d: %v", i, err)
		}
	}
	st := g.Stats()
	if got := shardSessions(g); !slices.Equal(got, []int{3, 2, 2}) {
		t.Errorf("sessions per shard = %v, want [3 2 2]", got)
	}
	if st.SessionsActive != n || st.Handshakes != n {
		t.Errorf("sessions active %d, handshakes %d; want %d and %d", st.SessionsActive, st.Handshakes, n, n)
	}
}
