package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xsearch/internal/enclave"
)

// Tests for the sealed seam as the only way in: ServeQuery is a client of
// it like any broker, a blank query is refused inside it, and a query in
// the clear is refused before it.

// privacyState is what a refused query must leave as it was: the history
// window, the cache and the index (contents and probes), and the EPC meter.
func privacyState(p *Proxy) string {
	s := p.Stats()
	return fmt.Sprintf("history=%d/%dB cache=%d/%dB hits=%d misses=%d index=%d/%dB hits=%d misses=%d heap=%d epc=%d",
		s.HistoryLen, s.HistoryB, s.CacheLen, s.CacheB, s.CacheHits, s.CacheMisses,
		s.IndexDocs, s.IndexB, s.IndexHits, s.IndexMisses, s.Enclave.HeapBytes, s.Enclave.EPCUsed)
}

// ServeQuery replaces a session the enclave has evicted, once: after three
// handshakes push its session out of a two-slot table, the next call still
// succeeds at the cost of one handshake. A kept session's call is one
// ecall; the evicted one's is three — the refused record, the handshake
// and the served record.
func TestServeQueryReplacesEvictedSession(t *testing.T) {
	p, err := New(Config{K: 1, EchoMode: true, Seed: 1, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	ctx := context.Background()
	costs := func(query string) uint64 {
		t.Helper()
		before := p.Stats().Enclave.ECalls
		if _, err := p.ServeQuery(ctx, query); err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		return p.Stats().Enclave.ECalls - before
	}
	costs("first query")
	if n := costs("on the kept session"); n != 1 {
		t.Fatalf("a call on a kept session cost %d ecalls, want 1", n)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := churnClient(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := costs("after the eviction"); n != 3 {
		t.Fatalf("a call on an evicted session cost %d ecalls, want 3 (one handshake)", n)
	}
	if n := costs("on the replacement"); n != 1 {
		t.Fatalf("a call on the replacement session cost %d ecalls, want 1", n)
	}
}

// Each concurrent ServeQuery caller holds a session of its own, so no
// record reaches the enclave out of its session's order: 32 callers hold
// at most 32 sessions and never meet the replay window.
func TestServeQueryConcurrentCallersOwnSessions(t *testing.T) {
	const callers, calls = 32, 20
	for name, mutate := range map[string]func(*Config){
		"blocking":      func(*Config) {},
		"async+batched": func(c *Config) { c.AsyncOcalls = true; c.BatchMax = 4 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{K: 1, EchoMode: true, Seed: 1, EnclaveConfig: enclave.Config{TCSCount: 4}}
			mutate(&cfg)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Crash()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("caller %d query %d", c, i)); err != nil {
							t.Errorf("caller %d query %d: %v", c, i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			p.idleMu.Lock()
			idle := len(p.idle)
			p.idleMu.Unlock()
			p.trusted.mu.Lock()
			held := len(p.trusted.sessions)
			p.trusted.mu.Unlock()
			if idle > callers || held > callers {
				t.Errorf("%d callers left %d idle sessions, %d in the enclave's table; want at most %d", callers, idle, held, callers)
			}
		})
	}
}

// A blank query is refused inside the enclave with a sealed reply, on
// every request stage, before obfuscation: the client reads the refusal,
// and the history (which would serve the blank to other users as a fake),
// the cache, the index, the EPC meter and the engine are untouched.
func TestSealedBlankQueryRefused(t *testing.T) {
	for _, stage := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"blocking", func(*Config) {}},
		{"async", func(c *Config) { c.AsyncOcalls = true }},
		{"batched", func(c *Config) { c.AsyncOcalls = true; c.BatchMax = 4 }},
	} {
		t.Run(stage.name, func(t *testing.T) {
			engine, srv := newDelayEngine(t, 0)
			p := newStageProxy(t, false, func(c *Config) {
				c.CacheBytes, c.IndexBytes = 1<<20, 1<<20
				stage.mutate(c)
			}, EngineSpec{Host: srv.Addr()})
			ctx := context.Background()
			if _, err := p.ServeQuery(ctx, "chicken recipe dinner"); err != nil {
				t.Fatal(err)
			}
			channel, session, err := churnClient(p)
			if err != nil {
				t.Fatal(err)
			}
			before, logged := privacyState(p), len(engine.QueryLog())
			for _, blank := range []string{"", "   ", "\t\n"} {
				out, err := p.Secure(ctx, session, sealQuery(t, channel, blank))
				if err != nil {
					t.Fatalf("%q: ecall error %v, want a sealed refusal", blank, err)
				}
				pt, err := channel.Open(out)
				if err != nil {
					t.Fatal(err)
				}
				var resp secureResponse
				if err := json.Unmarshal(pt, &resp); err != nil || resp.Err != "proxy: empty query" || len(resp.Results) != 0 {
					t.Errorf("%q: sealed reply %+v (%v), want the empty-query refusal", blank, resp, err)
				}
			}
			if _, err := p.ServeQuery(ctx, "  "); err == nil || err.Error() != "proxy: empty query" {
				t.Errorf("ServeQuery of a blank: err = %v, want the empty-query refusal", err)
			}
			if after := privacyState(p); after != before {
				t.Errorf("blank queries moved the enclave's state:\n  before %s\n  after  %s", before, after)
			}
			if n := len(engine.QueryLog()); n != logged {
				t.Errorf("engine saw %d queries after the blanks, want %d", n, logged)
			}
			assertEPCInvariant(t, p)
		})
	}
}

// The enclave admits no query in the clear, whoever frames it: a
// "request" ecall whose type byte is 1 — in the layout a plaintext query
// once crossed in, or a sealed envelope relabelled — and a "request-batch"
// holding one such item are refused at decode, before any stage runs.
func TestTypeOneEnvelopeRefused(t *testing.T) {
	engine, srv := newDelayEngine(t, 0)
	p := newStageProxy(t, true, func(c *Config) {
		c.BatchMax = 4
		c.CacheBytes, c.IndexBytes = 1<<20, 1<<20
	}, EngineSpec{Host: srv.Addr()})
	ctx := context.Background()
	if _, err := p.ServeQuery(ctx, "chicken recipe dinner"); err != nil {
		t.Fatal(err)
	}
	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := (&envelope{Type: typeSecure, ID: 41, Session: []byte(session), Record: sealQuery(t, channel, "mortgage refinance rates")}).encode()
	relabelled[0] = 1
	before, logged := privacyState(p), len(engine.QueryLog())
	for name, arg := range map[string][]byte{
		"plaintext layout": plainEnvelope(42, "mortgage refinance rates"),
		"relabelled":       relabelled,
	} {
		if _, err := p.encl.ECall(ctx, "request", arg); err == nil || !strings.Contains(err.Error(), "bad envelope") {
			t.Errorf("%s request: err = %v, want a bad envelope", name, err)
		}
		out, err := p.encl.ECall(ctx, "request-batch", encodeBatch([][]byte{arg}))
		if err != nil {
			t.Fatal(err)
		}
		frames, err := decodeBatch(out)
		if err != nil || len(frames) != 1 {
			t.Fatalf("%s request-batch reply: %d frames, %v", name, len(frames), err)
		}
		var item batchItemReply
		if err := item.decode(frames[0]); err != nil || len(item.Reply) != 0 || !strings.Contains(item.Err, "bad envelope") {
			t.Errorf("%s batch item: %+v (%v), want a bad envelope", name, item, err)
		}
	}
	if after := privacyState(p); after != before {
		t.Errorf("type-1 envelopes moved the enclave's state:\n  before %s\n  after  %s", before, after)
	}
	if n := len(engine.QueryLog()); n != logged {
		t.Errorf("engine saw %d queries after the type-1 envelopes, want %d", n, logged)
	}
	pt := p.trusted.pending
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if n := len(pt.byID); n != 0 {
		t.Errorf("%d requests parked by refused envelopes", n)
	}
}
