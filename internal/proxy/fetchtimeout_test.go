package proxy

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for Config.FetchTimeout: the engine exchange's absolute deadline.
// An upstream that accepts connections but never responds used to pin a
// TCS forever (blocking) or an async worker until caller abandonment or
// shutdown cancelled the fetch; with a timeout set it
// fails fast and counts against the upstream's breaker.

// startBlackholeUpstream listens and accepts (reading the request so the
// client's write succeeds) but never writes a byte back. Returns the
// address and an accepted-connection counter.
func startBlackholeUpstream(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	done := make(chan struct{})
	t.Cleanup(func() { close(done); _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					select {
					case <-done:
						return
					default: // swallow the request, answer nothing
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestFetchTimeoutFailsHungUpstream: the deadline is the exchange's, so it
// unpins a TCS on the blocking stage and un-parks a flight on the async one
// the same way, in the handshake (TLS: the black hole never answers the
// ClientHello) as in the response read.
func TestFetchTimeoutFailsHungUpstream(t *testing.T) {
	forEachTransport(t, func(t *testing.T, async, withTLS bool) {
		addr, accepted := startBlackholeUpstream(t)
		engine, phase := EngineSpec{Host: addr}, "read response"
		if withTLS {
			engine.RootsPEM, phase = somePEM(t), "engine TLS"
		}
		p := newStageProxy(t, async, func(c *Config) { c.FetchTimeout = 150 * time.Millisecond }, engine)

		start := time.Now()
		_, err := p.ServeQuery(context.Background(), "query into the void")
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("query against a never-responding upstream succeeded")
		}
		if !strings.Contains(err.Error(), phase) {
			t.Fatalf("error %v does not name the %q phase", err, phase)
		}
		// The deadline, not a caller context or shutdown, must have fired:
		// well above the timeout, far below the dial timeout.
		if elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
			t.Fatalf("failed after %v, want ~150ms deadline", elapsed)
		}
		if accepted.Load() == 0 {
			t.Fatal("upstream never accepted: the test exercised the dial path, not the read deadline")
		}
		s := p.Stats()
		if len(s.Upstreams) != 1 || s.Upstreams[0].Failures == 0 {
			t.Fatalf("timeout not counted against the upstream breaker: %+v", s.Upstreams)
		}
		assertEPCInvariant(t, p)
	})
}

// TestFetchTimeoutFailsOverToHealthyUpstream: with a hung and a healthy
// upstream, the deadline turns the black hole into an ordinary failing
// upstream — requests fail over and the breaker eventually excludes it.
func TestFetchTimeoutFailsOverToHealthyUpstream(t *testing.T) {
	hung, _ := startBlackholeUpstream(t)
	_, srv := newDelayEngine(t, 0)
	p, err := New(Config{
		K:    1,
		Seed: 1,
		// Weight the black hole so the fan-out keeps picking it first.
		Engines:               []EngineSpec{{Host: hung, Weight: 4}, {Host: srv.Addr(), Weight: 1}},
		AsyncOcalls:           true,
		FetchTimeout:          100 * time.Millisecond,
		UpstreamFailThreshold: 2,
		UpstreamCooldown:      time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	for i := 0; i < 8; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("failover query %d", i)); err != nil {
			t.Fatalf("query %d: %v (the healthy upstream should have answered)", i, err)
		}
	}
	s := p.Stats()
	var hungStats, liveStats UpstreamStats
	for _, u := range s.Upstreams {
		if u.Host == hung {
			hungStats = u
		} else {
			liveStats = u
		}
	}
	if hungStats.Failures == 0 {
		t.Fatalf("hung upstream recorded no failures: %+v", s.Upstreams)
	}
	if !hungStats.CoolingDown {
		t.Fatalf("hung upstream's breaker never opened: %+v", hungStats)
	}
	if liveStats.Served == 0 {
		t.Fatalf("healthy upstream served nothing: %+v", s.Upstreams)
	}
	assertEPCInvariant(t, p)
}

func TestFetchTimeoutConfigValidation(t *testing.T) {
	_, srv := newDelayEngine(t, 0)
	if _, err := New(Config{
		K: 1, Engines: []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true, FetchTimeout: -time.Second,
	}); err == nil {
		t.Fatal("negative FetchTimeout accepted")
	}
	// FetchTimeout covers the blocking stage too (its recv ocalls carry
	// real read deadlines), so a sync config with a timeout is valid.
	p, err := New(Config{
		K: 1, Engines: []EngineSpec{{Host: srv.Addr()}},
		FetchTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("FetchTimeout on the blocking path rejected: %v", err)
	}
	p.Crash()
}
