package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/searchengine"
)

// Tests for the async request pipeline: staged ecalls around switchless
// fetches, failover and coalescing on the pending table, and the EPC
// invariant surviving all of it.

// newDelayEngine starts a loopback engine whose every request takes delay.
func newDelayEngine(t *testing.T, delay time.Duration) (*searchengine.Engine, *searchengine.Server) {
	t.Helper()
	var fn func() time.Duration
	if delay > 0 {
		fn = func() time.Duration { return delay }
	}
	return newHookedEngine(t, fn)
}

// newHookedEngine starts a loopback engine that calls delayFn inside every
// request's handler (and sleeps what it returns) before answering.
func newHookedEngine(t *testing.T, delayFn func() time.Duration) (*searchengine.Engine, *searchengine.Server) {
	t.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	srv.DelayFn = delayFn
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return engine, srv
}

// assertEPCInvariant checks heap == history + cache + index, the accounting
// contract every pipeline stage must preserve.
func assertEPCInvariant(t *testing.T, p *Proxy) {
	t.Helper()
	s := p.Stats()
	if s.Enclave.HeapBytes != s.HistoryB+s.CacheB+s.IndexB {
		t.Errorf("EPC invariant broken: heap=%d history=%d cache=%d index=%d",
			s.Enclave.HeapBytes, s.HistoryB, s.CacheB, s.IndexB)
	}
}

func TestAsyncPipelinePlainQueries(t *testing.T) {
	_, srv := newDelayEngine(t, 0)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	for i := 0; i < 20; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("pipeline query %d", i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	s := p.Stats()
	if s.AsyncSubmitted == 0 {
		t.Error("no async fetches submitted: requests took the blocking path")
	}
	if s.AsyncCompleted != s.AsyncSubmitted {
		t.Errorf("async submitted=%d completed=%d", s.AsyncSubmitted, s.AsyncCompleted)
	}
	if s.LatencyCount == 0 || s.LatencyP50 <= 0 {
		t.Errorf("latency histogram empty: %+v", s.LatencyCount)
	}
	assertEPCInvariant(t, p)
}

func TestAsyncPipelineSecureSession(t *testing.T) {
	_, srv := newDelayEngine(t, 0)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	reqPT, err := json.Marshal(secureRequest{Query: "pipeline secure query"})
	if err != nil {
		t.Fatal(err)
	}
	record, err := channel.Seal(reqPT)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Secure(context.Background(), session, record)
	if err != nil {
		t.Fatal(err)
	}
	respPT, err := channel.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	var sresp secureResponse
	if err := json.Unmarshal(respPT, &sresp); err != nil {
		t.Fatal(err)
	}
	if sresp.Err != "" {
		t.Fatalf("secure response error: %s", sresp.Err)
	}
	assertEPCInvariant(t, p)
}

// Both upstreams down: the pipeline fails over, the request fails, and
// each upstream's breaker is charged exactly once for this request.
func TestAsyncFailoverBreakerCountsOnce(t *testing.T) {
	deadA, deadB := reservePort(t), reservePort(t)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: deadA}, {Host: deadB}},
		AsyncOcalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	if _, err := p.ServeQuery(context.Background(), "doomed query"); err == nil {
		t.Fatal("query succeeded with every upstream dead")
	}
	s := p.Stats()
	for _, u := range s.Upstreams {
		if u.Failures != 1 {
			t.Errorf("upstream %s failures = %d, want exactly 1", u.Host, u.Failures)
		}
	}
	assertEPCInvariant(t, p)
}

// Coalesced followers ride the leader's flight: no fetches of their own,
// so one engine trip answers them all and the cache is charged once.
func TestCoalescedFollowersShareOneFetch(t *testing.T) {
	engA, srvA := newDelayEngine(t, 100*time.Millisecond)
	engB, srvB := newDelayEngine(t, 100*time.Millisecond)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srvA.Addr()}, {Host: srvB.Addr()}},
		AsyncOcalls: true,
		CacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.ServeQuery(context.Background(), "identical storm query")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	s := p.Stats()
	if s.CoalesceShared != workers-1 || s.CoalesceLed != 1 {
		t.Errorf("coalesce shared/led = %d/%d, want %d/1", s.CoalesceShared, s.CoalesceLed, workers-1)
	}
	// One flight: one fetch reached one engine.
	if trips := len(engA.QueryLog()) + len(engB.QueryLog()); trips != 1 {
		t.Errorf("engines saw %d trips for one coalesced flight, want 1", trips)
	}
	if s.CacheLen != 1 {
		t.Errorf("cache len = %d, want 1 (charged once by the leader)", s.CacheLen)
	}
	assertEPCInvariant(t, p)
}

// Config validation: malformed root pins and undersized async rings are
// rejected.
func TestPipelineConfigValidation(t *testing.T) {
	// In-enclave TLS upstreams now ride the async pipeline; garbage pins
	// are still rejected, at registry build.
	if _, err := New(Config{
		K:           1,
		Engines:     []EngineSpec{{Host: "127.0.0.1:1", RootsPEM: []byte("not a cert")}},
		AsyncOcalls: true,
	}); err == nil || !strings.Contains(err.Error(), "RootsPEM") {
		t.Errorf("async with garbage RootsPEM: err = %v", err)
	}
	// Explicit async workers/rings below the pipeline's needs would allow
	// stage-1 ecalls to block on a full submission ring while holding
	// every TCS (deadlock): rejected, not silently accepted.
	if _, err := New(Config{
		K:             1,
		Engines:       []EngineSpec{{Host: "127.0.0.1:1"}},
		AsyncOcalls:   true,
		PipelineDepth: 8,
		EnclaveConfig: enclave.Config{AsyncWorkers: 2},
	}); err == nil || !strings.Contains(err.Error(), "AsyncWorkers") {
		t.Errorf("undersized AsyncWorkers: err = %v, want rejection", err)
	}
}

// A cancelled completion for a request that is NOT done (closeAll marking
// in-flight ops cancelled while resume workers still run — Shutdown's
// drain deadline expiring on stragglers) must finalize the request, not
// orphan it: the parked waiter gets a definitive reply instead of hanging.
func TestCancelledCompletionFinalizesLiveRequest(t *testing.T) {
	_, srv := newDelayEngine(t, 500*time.Millisecond)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	done := make(chan error, 1)
	go func() {
		_, err := p.ServeQuery(context.Background(), "straggler query")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // park the request mid-fetch
	p.conns.closeAll()                // cancels the in-flight op; workers still run
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Errorf("straggler err = %v, want a cancellation failure", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled live request never finalized: waiter orphaned")
	}
	// A cancellation is not the upstream's fault: breaker untouched.
	for _, u := range p.Stats().Upstreams {
		if u.Failures != 0 {
			t.Errorf("upstream %s failures = %d, want 0 after cancellation", u.Host, u.Failures)
		}
	}
}

// Graceful drain: requests admitted before Shutdown finish their staged
// fetches before the enclave is destroyed.
func TestPipelineShutdownDrainsInFlight(t *testing.T) {
	_, srv := newDelayEngine(t, 100*time.Millisecond)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const inFlight = 4
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.ServeQuery(context.Background(), fmt.Sprintf("draining query %d", i))
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // let the fetches get airborne
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight request %d dropped by shutdown: %v", i, err)
		}
	}
}

// Pipelined secure traffic racing session churn: handshakes evict sessions
// (FIFO) while parked requests resolve against them. Sessions evicted
// mid-flight must fail cleanly; the table and pending bookkeeping must
// survive (-race covers the rest).
func TestPipelineSessionChurnRace(t *testing.T) {
	_, srv := newDelayEngine(t, 5*time.Millisecond)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
		MaxSessions: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				channel, session, err := churnClient(p)
				if err != nil {
					t.Errorf("worker %d handshake: %v", w, err)
					return
				}
				reqPT, err := json.Marshal(secureRequest{Query: fmt.Sprintf("churn %d-%d", w, i)})
				if err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
				record, err := channel.Seal(reqPT)
				if err != nil {
					t.Errorf("seal: %v", err)
					return
				}
				// Evicted sessions fail with "unknown session" — a clean
				// loss, matching the sync path's churn semantics.
				if out, err := p.Secure(context.Background(), session, record); err == nil {
					if _, err := channel.Open(out); err != nil {
						t.Errorf("worker %d: corrupt response: %v", w, err)
						return
					}
				} else if !strings.Contains(err.Error(), "unknown session") &&
					!strings.Contains(err.Error(), "open record") {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	assertEPCInvariant(t, p)
}

// End-to-end twin of TestOutcomeBeforeCrossingReturnsIsDelivered: a dead
// upstream makes every fetch complete in microseconds (dial refused), so
// final outcomes reliably race their own crossing's return. An outcome
// that missed its waiter would leak an admission slot per request and
// deadlock the pipeline after PipelineDepth of them.
func TestPipelineFastFailureNoAdmissionLeak(t *testing.T) {
	dead := reservePort(t)
	p, err := New(Config{
		K:             1,
		Seed:          1,
		Engines:       []EngineSpec{{Host: dead}},
		AsyncOcalls:   true,
		PipelineDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := p.ServeQuery(ctx, fmt.Sprintf("doomed fast-fail %d", i))
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil {
			t.Fatalf("request %d succeeded against a dead upstream", i)
		}
		if timedOut {
			t.Fatalf("request %d hung (%v): outcome dropped, admission slot leaked", i, err)
		}
	}
	if n := p.pipeline.inFlight(); n != 0 {
		t.Errorf("inFlight = %d after every request returned", n)
	}
	assertEPCInvariant(t, p)
}

// Shutdown past its drain deadline: the straggler is cancelled and then
// FINALIZED — Shutdown's grace re-drain lets the cancelled completion
// traverse the rings — so the caller gets the definitive cancellation
// reply, not the generic pipeline-stopped error.
func TestShutdownStragglerGetsCancelledReply(t *testing.T) {
	_, srv := newDelayEngine(t, 5*time.Second)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.ServeQuery(context.Background(), "shutdown straggler")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // park the request mid-fetch
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err == nil {
		t.Error("shutdown reported success with a straggler past the drain deadline")
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Errorf("straggler err = %v, want the finalized cancellation reply", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("straggler never released by shutdown")
	}
}

// A drain deadline expiring on a straggler must not cost the operator the
// persisted history: the snapshot ecall runs on its own context, not the
// caller's already-expired one.
func TestShutdownPersistsStateDespiteExpiredDrain(t *testing.T) {
	_, srv := newDelayEngine(t, 5*time.Second)
	statePath := t.TempDir() + "/state.sealed"
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true,
		StatePath:   statePath,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.ServeQuery(context.Background(), "persist straggler")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err == nil {
		t.Error("shutdown reported success past its drain deadline")
	}
	<-done
	if fi, err := os.Stat(statePath); err != nil || fi.Size() == 0 {
		t.Errorf("sealed state not persisted past the drain deadline: %v", err)
	}
}

// Abandoning a lone leader (caller ctx expires while parked) must free
// its trusted state and cancel its fetch: a later identical query then
// leads a fresh flight instead of coalescing onto a dead leader that will
// never finalize, and in-flight fetches stay bounded under client-timeout
// churn. The cancelled fetch is not the upstream's fault, so its breaker
// is not charged, and — over a pinned-root TLS engine too — it leaves the
// upstream's pool intact: once the engine is fast again, fresh queries
// succeed over pooled sessions.
func TestAbandonCancelsLoneLeader(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testAbandonCancelsLoneLeader(t, false) })
	t.Run("tls", func(t *testing.T) { testAbandonCancelsLoneLeader(t, true) })
}

func testAbandonCancelsLoneLeader(t *testing.T, withTLS bool) {
	var delay atomic.Int64
	delay.Store(int64(300 * time.Millisecond))
	var p *Proxy
	if withTLS {
		srv, pem := newTLSDelayEngine(t, &delay)
		p = newAsyncTLSProxy(t, nil, EngineSpec{Host: srv.Addr(), RootsPEM: pem})
	} else {
		_, srv := newHookedEngine(t, func() time.Duration { return time.Duration(delay.Load()) })
		p = newStageProxy(t, true, nil, EngineSpec{Host: srv.Addr()})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := p.ServeQuery(ctx, "abandoned flight")
	cancel()
	if err == nil {
		t.Fatal("query succeeded before the engine could have replied")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if _, err := p.ServeQuery(ctx2, "abandoned flight"); err != nil {
		t.Fatalf("retry after abandon: %v (coalesced onto a dead leader?)", err)
	}
	// Nothing waits once both calls returned.
	pl := p.pipeline
	pl.mu.Lock()
	waiters := len(pl.waiters)
	pl.mu.Unlock()
	if waiters != 0 {
		t.Errorf("dispatcher state leaked: waiters=%d", waiters)
	}
	// A cancelled fetch must not count against its upstream's breaker.
	for _, u := range p.Stats().Upstreams {
		if u.Failures != 0 {
			t.Errorf("upstream %s failures = %d, want 0", u.Host, u.Failures)
		}
	}
	assertEPCInvariant(t, p)

	// The cancelled fetch must not have poisoned the upstream: made fast
	// again it answers, over intact pooled sessions.
	delay.Store(0)
	for i := 0; i < 6; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("post-abandon query %d", i)); err != nil {
			t.Fatalf("post-abandon query %d: %v", i, err)
		}
	}
	if s := p.Stats(); s.PoolReuses == 0 {
		t.Errorf("no session reuse after the abandon: dials=%d reuses=%d", s.PoolDials, s.PoolReuses)
	}
	assertEPCInvariant(t, p)
}
