package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/searchengine"
)

// Tests for the upstream-set redesign: weighted fan-out across engines,
// breaker-gated failover around dead upstreams, re-probing after cooldown,
// and single-flight coalescing of concurrent identical queries.

// newFanoutEngine starts one loopback search engine on addr ("127.0.0.1:0"
// picks a port) and returns it with its server.
func newFanoutEngine(t *testing.T, addr string) (*searchengine.Engine, *searchengine.Server) {
	t.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	if err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return engine, srv
}

// reservePort grabs a loopback port and closes the listener, returning an
// address nothing listens on (a "dead upstream" until a test revives it).
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// Two healthy upstreams: the fan-out must spread distinct queries across
// both, and the per-upstream stats must account for every request.
func TestFanoutSpreadsLoadAcrossUpstreams(t *testing.T) {
	engA, srvA := newFanoutEngine(t, "127.0.0.1:0")
	engB, srvB := newFanoutEngine(t, "127.0.0.1:0")
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: srvA.Addr()},
			{Host: srvB.Addr()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	const total = 40
	for i := 0; i < total; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("fanout query %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := len(engA.QueryLog()), len(engB.QueryLog())
	if a+b != total {
		t.Errorf("engines saw %d+%d queries, want %d", a, b, total)
	}
	if a == 0 || b == 0 {
		t.Errorf("fan-out left an upstream idle: %d vs %d", a, b)
	}
	s := p.Stats()
	if len(s.Upstreams) != 2 {
		t.Fatalf("Upstreams = %+v", s.Upstreams)
	}
	if got := s.Upstreams[0].Served + s.Upstreams[1].Served; got != total {
		t.Errorf("served %d, want %d", got, total)
	}
}

// Weights shape the spread: a weight-3 upstream must carry roughly three
// times the traffic of a weight-1 one (the ring walk is deterministic, so
// with 40 requests the split is exactly 30/10).
func TestFanoutHonorsWeights(t *testing.T) {
	engA, srvA := newFanoutEngine(t, "127.0.0.1:0")
	engB, srvB := newFanoutEngine(t, "127.0.0.1:0")
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: srvA.Addr(), Weight: 3},
			{Host: srvB.Addr(), Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	const total = 40
	for i := 0; i < total; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("weighted query %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := len(engA.QueryLog()), len(engB.QueryLog())
	if a != 30 || b != 10 {
		t.Errorf("weighted split = %d/%d, want 30/10", a, b)
	}
}

// One dead upstream: every request must still succeed via the live one,
// and after the breaker opens the dead upstream must cost nothing — its
// failure count stalls at the threshold instead of growing per request.
func TestFailoverAroundDeadUpstream(t *testing.T) {
	engLive, srvLive := newFanoutEngine(t, "127.0.0.1:0")
	dead := reservePort(t)
	const threshold = 2
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: dead},
			{Host: srvLive.Addr()},
		},
		UpstreamFailThreshold: threshold,
		UpstreamCooldown:      time.Hour, // never re-probe within the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	const total = 12
	for i := 0; i < total; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("failover query %d", i)); err != nil {
			t.Fatalf("query %d failed despite a live upstream: %v", i, err)
		}
	}
	if got := len(engLive.QueryLog()); got != total {
		t.Errorf("live engine saw %d queries, want %d", got, total)
	}
	s := p.Stats()
	var deadStats, liveStats UpstreamStats
	for _, u := range s.Upstreams {
		if u.Host == dead {
			deadStats = u
		} else {
			liveStats = u
		}
	}
	if deadStats.Failures != threshold {
		t.Errorf("dead upstream failures = %d, want exactly the threshold %d (breaker must stop the bleeding)",
			deadStats.Failures, threshold)
	}
	if !deadStats.CoolingDown {
		t.Error("dead upstream not reported as cooling down")
	}
	if deadStats.Served != 0 || liveStats.Served != total {
		t.Errorf("served split = %d/%d, want 0/%d", deadStats.Served, liveStats.Served, total)
	}
}

// With every upstream dead, requests must fail fast once the breakers are
// open — the cooldown error path, not a dial per request — and both engine
// stages count coalescing alike: a leader that made a real attempt is led,
// one no upstream admitted is not.
func TestAllUpstreamsDeadFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name  string
		async bool
	}{{"blocking", false}, {"async", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(Config{
				K:                     1,
				Seed:                  1,
				Engines:               []EngineSpec{{Host: reservePort(t)}},
				UpstreamFailThreshold: 1,
				UpstreamCooldown:      time.Hour,
				AsyncOcalls:           tc.async,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Crash()
			ctx := context.Background()
			_, err = p.ServeQuery(ctx, "first")
			if err == nil || strings.Contains(err.Error(), errNoUpstream.Error()) {
				t.Fatalf("first query error = %v, want a failed attempt on the dead upstream", err)
			}
			if s := p.Stats(); s.CoalesceLed != 1 || s.CoalesceShared != 0 {
				t.Fatalf("after a failed attempt coalesce led/shared = %d/%d, want 1/0", s.CoalesceLed, s.CoalesceShared)
			}
			// Breaker is now open: the next request must not dial at all.
			before := p.Stats()
			_, err = p.ServeQuery(ctx, "second")
			if err == nil || !strings.Contains(err.Error(), errNoUpstream.Error()) {
				t.Fatalf("second query error = %v, want %q", err, errNoUpstream)
			}
			after := p.Stats()
			if got := after.Enclave.OCalls - before.Enclave.OCalls; got != 0 {
				t.Errorf("fast-fail request still issued %d ocalls", got)
			}
			if got := after.AsyncSubmitted - before.AsyncSubmitted; got != 0 {
				t.Errorf("fast-fail request still submitted %d async fetches", got)
			}
			if after.CoalesceLed != 1 || after.CoalesceShared != 0 {
				t.Errorf("no admitted upstream, yet coalesce led/shared = %d/%d, want 1/0", after.CoalesceLed, after.CoalesceShared)
			}
		})
	}
}

// A revived upstream must rejoin the rotation after its cooldown: the
// breaker admits one probe, the probe succeeds, and traffic spreads again.
func TestBreakerReprobesAfterCooldown(t *testing.T) {
	_, srvLive := newFanoutEngine(t, "127.0.0.1:0")
	revivable := reservePort(t)
	const cooldown = 100 * time.Millisecond
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: revivable},
			{Host: srvLive.Addr()},
		},
		UpstreamFailThreshold: 1,
		UpstreamCooldown:      cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	// Trip the breaker on the not-yet-listening upstream.
	for i := 0; i < 4; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("warm query %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tripped := false
	for _, u := range p.Stats().Upstreams {
		if u.Host == revivable && u.Failures > 0 {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("dead upstream never tried (rotation broken)")
	}

	// Revive it on the same address and wait out the cooldown.
	engRevived, _ := newFanoutEngine(t, revivable)
	time.Sleep(2 * cooldown)

	for i := 0; i < 8; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("recovery query %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(engRevived.QueryLog()); got == 0 {
		t.Error("revived upstream never re-probed after cooldown")
	}
}

// slowEngine is a hand-rolled HTTP engine that delays each response and
// counts round trips: the window that lets concurrent identical queries
// pile onto one flight deterministically.
type slowEngine struct {
	ln    net.Listener
	delay time.Duration
	hits  atomic.Int64
}

func newSlowEngine(t *testing.T, delay time.Duration) *slowEngine {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	se := &slowEngine{ln: ln, delay: delay}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer func() { _ = c.Close() }()
				buf := make([]byte, 4096)
				if _, err := c.Read(buf); err != nil {
					return
				}
				se.hits.Add(1)
				time.Sleep(se.delay)
				body := `[{"url":"http://shared.example/a","title":"t","snippet":"s"}]`
				_, _ = fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
			}(conn)
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return se
}

// N concurrent identical original queries must trigger far fewer than N
// engine round trips, with the shared/led split accounting for all of
// them. The slow engine keeps the leader's flight open long enough for
// every concurrently-launched worker to join it.
func TestCoalescingCollapsesConcurrentIdenticalQueries(t *testing.T) {
	const workers = 16
	se := newSlowEngine(t, 50*time.Millisecond)
	p, err := New(Config{
		K:             1,
		Seed:          1,
		Engines:       []EngineSpec{{Host: se.ln.Addr().String()}},
		EnclaveConfig: enclave.Config{TCSCount: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.ServeQuery(context.Background(), "the one hot query"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := se.hits.Load(); got >= workers/2 {
		t.Errorf("%d concurrent identical queries cost %d round trips; coalescing should collapse most", workers, got)
	}
	s := p.Stats()
	if s.CoalesceShared == 0 {
		t.Error("no query shared a flight")
	}
	if s.CoalesceShared+s.CoalesceLed != workers {
		t.Errorf("coalesce accounting %d+%d != %d requests", s.CoalesceShared, s.CoalesceLed, workers)
	}
	if s.CoalesceRatio <= 0 {
		t.Errorf("coalesce ratio = %f", s.CoalesceRatio)
	}
}

// A coalesced result must be charged to the EPC exactly once: after a
// storm of concurrent identical queries with the cache on, the enclave
// heap must equal history + cache + index exactly (the PR 1 invariant), and the
// cache must hold one entry.
func TestCoalescedResultChargedOnce(t *testing.T) {
	const workers = 16
	se := newSlowEngine(t, 30*time.Millisecond)
	p, err := New(Config{
		K:             1,
		Seed:          1,
		Engines:       []EngineSpec{{Host: se.ln.Addr().String()}},
		CacheBytes:    1 << 20,
		EnclaveConfig: enclave.Config{TCSCount: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.ServeQuery(context.Background(), "hot cached query"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.CacheB == 0 {
		t.Fatal("cache stored nothing")
	}
	if s.CacheLen != 1 {
		t.Errorf("cache holds %d entries for one distinct query", s.CacheLen)
	}
	if s.Enclave.HeapBytes != s.HistoryB+s.CacheB+s.IndexB {
		t.Errorf("heap %d != history %d + cache %d (coalesced result double- or under-charged)",
			s.Enclave.HeapBytes, s.HistoryB, s.CacheB)
	}
}

// Race coverage: single-flight waiters, session churn, and fan-out all at
// once. Secure queries reuse a small set of identical query strings so
// flights constantly form and land while the session table evicts FIFO
// under -race.
func TestConcurrentCoalescingWithSessionChurn(t *testing.T) {
	_, srvA := newFanoutEngine(t, "127.0.0.1:0")
	_, srvB := newFanoutEngine(t, "127.0.0.1:0")
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: srvA.Addr()},
			{Host: srvB.Addr()},
		},
		MaxSessions:   4,
		EnclaveConfig: enclave.Config{TCSCount: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(2)
		// Plain-path workers: identical queries, maximal flight contention.
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("churn hot %d", i%3)); err != nil {
					errs <- fmt.Errorf("plain worker %d: %w", w, err)
					return
				}
			}
		}(w)
		// Secure-path workers: handshakes churn the session table while
		// their queries join the same flights.
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				channel, session, err := churnClient(p)
				if err != nil {
					errs <- fmt.Errorf("handshake worker %d: %w", w, err)
					return
				}
				pt, err := json.Marshal(secureRequest{Query: fmt.Sprintf("churn hot %d", i%3)})
				if err != nil {
					errs <- err
					return
				}
				record, err := channel.Seal(pt)
				if err != nil {
					errs <- err
					return
				}
				// Evicted sessions fail with "unknown session"; that is
				// churn working, not a test failure.
				_, _ = p.ecall(context.Background(), envelope{
					Type:    typeSecure,
					Session: []byte(session),
					Record:  record,
				})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := p.Stats()
	if s.CoalesceShared+s.CoalesceLed == 0 {
		t.Error("no engine-bound request was accounted by the flight group")
	}
}

// Upstream-set validation: duplicates, missing ports, negative weights.
func TestEngineSpecValidation(t *testing.T) {
	for name, engines := range map[string][]EngineSpec{
		"duplicate hosts": {{Host: "127.0.0.1:9"}, {Host: "127.0.0.1:9"}},
		"missing port":    {{Host: "localhost"}},
		"empty host":      {{Host: ""}},
		"negative weight": {{Host: "127.0.0.1:9", Weight: -1}},
	} {
		if _, err := New(Config{K: 1, Engines: engines}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
