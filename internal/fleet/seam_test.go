package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/client"
	"xsearch/internal/enclave"
	"xsearch/internal/mux"
	"xsearch/internal/proxy"
	"xsearch/internal/raceflag"
)

// edgeStack is the benchmark's `edge` stack: a connected broker on the
// raw-TCP mux edge of a 2-shard EchoMode gateway.
func edgeStack(tb testing.TB) (*Gateway, *broker.Broker) {
	tb.Helper()
	g := echoFleet(tb, 2, time.Hour)
	if err := g.Start("127.0.0.1:0"); err != nil {
		tb.Fatalf("Start: %v", err)
	}
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		tb.Fatalf("StartMux: %v", err)
	}
	return g, connectedBroker(tb, g, "mux")
}

func connectedBroker(tb testing.TB, g *Gateway, transport string) *broker.Broker {
	tb.Helper()
	b, err := broker.New(broker.Config{
		ProxyURL:   g.URL(),
		ServiceKey: g.AttestationService().PublicKey(),
		Policy:     attestation.Policy{AcceptedMeasurements: []enclave.Measurement{g.Measurement()}},
		Transport:  transport,
		MuxAddr:    g.MuxAddr(),
	})
	if err != nil {
		tb.Fatalf("broker.New(%s): %v", transport, err)
	}
	tb.Cleanup(func() { _ = b.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Connect(ctx); err != nil {
		tb.Fatalf("Connect(%s): %v", transport, err)
	}
	return b
}

// TestMuxSecureCallAllocBudget is the allocation gate on the whole secure
// call — broker seal → mux → gateway route → "request" ecall → sealed
// reply, both processes' share counted — so what the binary seam and the
// coalesced mux I/O saved cannot leak away unnoticed (before PR 17: 90;
// after it 36; 24 with the sealed plaintext off encoding/json; 18 with each
// record sealed in place in the buffer that carries it, the reply opened in
// its frame payload, and no allocation per crossing; 17 with the handler on
// a parked session worker; 14 with the session id read where the body holds
// it, on the edge and in the enclave).
func TestMuxSecureCallAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	_, b := edgeStack(t)
	ctx := context.Background()
	queries := make([]string, 300) // formatted up front: the call's allocations, not the test's
	for i := range queries {
		queries[i] = fmt.Sprintf("budget query number %d", i)
	}
	i := 0
	search := func() {
		if _, err := b.Search(ctx, queries[i%len(queries)]); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		i++
	}
	for i < 50 {
		search() // fill the fake-query pool and every lazily sized buffer
	}
	const budget = 14
	got := testing.AllocsPerRun(200, search)
	t.Logf("one secure call over the mux edge: %.1f allocations", got)
	if got > budget {
		t.Errorf("one secure call over the mux edge: %.1f allocations, budget %d", got, budget)
	}
}

// BenchmarkMuxSecureCall is the profile target for the mux-edge secure
// call (the recipe is in .claude/skills/verify/SKILL.md).
func BenchmarkMuxSecureCall(b *testing.B) {
	_, br := edgeStack(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := br.Search(ctx, fmt.Sprintf("profile query number %d", i)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestOldFormatSecureBodyIsAPerStreamRefusal: a legacy broker's JSON
// SecureEnvelope on a KindSecure stream — and any other malformed secure
// body — fails that stream with the front's bad-body error, counts as one
// gateway error and no shard's, and leaves the session serving.
func TestOldFormatSecureBodyIsAPerStreamRefusal(t *testing.T) {
	g, _ := edgeStack(t)
	conn, err := net.Dial("tcp", g.MuxAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	s := mux.Client(conn, mux.Config{})
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	legacy, _ := json.Marshal(proxy.SecureEnvelope{Session: strings.Repeat("ab", 16), Record: make([]byte, 60)})
	for name, body := range map[string][]byte{
		"legacy JSON":  legacy,
		"empty":        nil,
		"id only":      client.AppendSecureBody(nil, strings.Repeat("ab", 16), nil),
		"truncated id": {32, 'a', 'b'},
		"zero-length":  {0, 1, 2, 3},
	} {
		before := g.Stats()
		_, err := s.Call(ctx, mux.KindSecure, body)
		var remote *mux.RemoteError
		if !errors.As(err, &remote) || remote.Msg != "bad secure body" {
			t.Errorf("%s: err = %v, want the stream refused with \"bad secure body\"", name, err)
		}
		if after := g.Stats(); after.Errors != before.Errors+1 || after.Total.Errors != before.Total.Errors {
			t.Errorf("%s: gateway errors %d -> %d, shard errors %d -> %d; want +1 and +0",
				name, before.Errors, after.Errors, before.Total.Errors, after.Total.Errors)
		}
	}
	muxHandshake(ctx, t, s) // the session survived the refusals
}

// TestOldFormatHTTPSecureBodyRefused is the same refusal on the HTTP edge,
// of a node and of the gateway: the JSON SecureEnvelope a broker from
// before the binary secure body POSTs to /secure is a 400 "bad secure
// body", the front that refused it — node or gateway — counts it as one
// error, and an established session answers the next call.
func TestOldFormatHTTPSecureBodyRefused(t *testing.T) {
	node, err := proxy.New(proxy.Config{K: 2, EchoMode: true, Seed: 5})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("node Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = node.Shutdown(ctx)
	})
	g, _ := edgeStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errorCount := map[string]func() uint64{
		"node":    func() uint64 { return node.Stats().Errors },
		"gateway": func() uint64 { return g.Stats().Errors },
	}
	for name, front := range map[string]attestedFront{"node": node, "gateway": g} {
		b, err := broker.New(broker.Config{
			ProxyURL:   front.URL(),
			ServiceKey: front.AttestationService().PublicKey(),
			Policy:     attestation.Policy{AcceptedMeasurements: []enclave.Measurement{front.Measurement()}},
		})
		if err != nil {
			t.Fatalf("%s: broker.New: %v", name, err)
		}
		if err := b.Connect(ctx); err != nil {
			t.Fatalf("%s: Connect: %v", name, err)
		}
		if _, err := b.Search(ctx, "before the legacy body"); err != nil {
			t.Fatalf("%s: search: %v", name, err)
		}
		errorsBefore := errorCount[name]()

		legacy, _ := json.Marshal(proxy.SecureEnvelope{Session: strings.Repeat("ab", 16), Record: make([]byte, 60)})
		resp, err := http.Post(front.URL()+"/secure", "application/json", bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("%s: POST: %v", name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(msg)) != "bad secure body" {
			t.Errorf("%s: legacy JSON body: %d %q, want 400 \"bad secure body\"", name, resp.StatusCode, msg)
		}
		if got := errorCount[name](); got != errorsBefore+1 {
			t.Errorf("%s errors %d -> %d, want +1", name, errorsBefore, got)
		}
		if _, err := b.Search(ctx, "after the legacy body"); err != nil {
			t.Errorf("%s: the session did not survive the refusal: %v", name, err)
		}
	}
}

// attestedFront is what a broker needs to know of a node or a gateway.
type attestedFront interface {
	URL() string
	Measurement() enclave.Measurement
	AttestationService() *attestation.Service
}

// TestConcurrentSearchesOnOneBroker is the ErrReplay regression: one
// connected broker searched from 8 goroutines at once. Both edges reorder
// records in flight (a goroutine per mux stream, a conn per HTTP request),
// which a strictly-increasing sequence check refused as replays — 719 of
// 4000 over mux and 930 over HTTP at the parent commit.
func TestConcurrentSearchesOnOneBroker(t *testing.T) {
	const workers, each = 8, 500
	g, muxB := edgeStack(t)
	for transport, b := range map[string]*broker.Broker{"mux": muxB, "http": connectedBroker(t, g, "http")} {
		t.Run(transport, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			failed := make([]int, workers)
			firstErr := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if _, err := b.Search(ctx, fmt.Sprintf("worker %d query %d", w, i)); err != nil {
							if failed[w]++; firstErr[w] == nil {
								firstErr[w] = err
							}
						}
					}
				}(w)
			}
			wg.Wait()
			for w := range failed {
				if failed[w] > 0 {
					t.Errorf("worker %d: %d of %d searches failed, first: %v", w, failed[w], each, firstErr[w])
				}
			}
		})
	}
}
