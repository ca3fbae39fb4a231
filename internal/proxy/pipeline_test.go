package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/searchengine"
)

// Tests for the async request pipeline: staged ecalls around switchless
// fetches, hedged upstream requests, coalescing on the pending table, and
// the EPC invariant surviving all of it.

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

// waitHedgeLoser returns the Stats of a pipeline whose hedge race is fully
// accounted. The loser's cancelled completion is resumed after the winner's
// reply is delivered, so HedgeCancelled read the instant ServeQuery returns
// may not count it yet: poll, to a bounded deadline, until a cancellation
// is counted and every submitted step has completed. On expiry the last
// snapshot is returned for the caller's assertions to fail on.
func waitHedgeLoser(p *Proxy) Stats {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := p.Stats()
		if (s.HedgeCancelled > 0 && s.AsyncSubmitted == s.AsyncCompleted) || time.Now().After(deadline) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}

// The loser of a hedge race is cancelled and the cache is charged exactly
// once: primary goes to a slow upstream, the hedge to a fast one wins.
func TestHedgeLoserCancelledCacheChargedOnce(t *testing.T) {
	_, slow := newDelayEngine(t, 300*time.Millisecond)
	_, fast := newDelayEngine(t, 0)
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: slow.Addr()}, // weighted-ring slot 0: the primary of request 1
			{Host: fast.Addr()},
		},
		AsyncOcalls: true,
		HedgeDelay:  20 * time.Millisecond,
		HedgeMax:    1,
		CacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	start := time.Now()
	if _, err := p.ServeQuery(context.Background(), "hedged query"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("hedged request took %v: the slow primary was waited out", elapsed)
	}
	s := p.Stats()
	if s.HedgeAttempts != 1 || s.HedgeWins != 1 {
		t.Errorf("hedge attempts=%d wins=%d, want 1/1", s.HedgeAttempts, s.HedgeWins)
	}
	if s.CacheLen != 1 {
		t.Errorf("cache len = %d, want 1 (charged once by the winner)", s.CacheLen)
	}
	s = waitHedgeLoser(p)
	if s.HedgeCancelled != 1 {
		t.Errorf("hedge cancelled = %d, want 1", s.HedgeCancelled)
	}
	// A cancelled loser must not count against its upstream's breaker.
	for _, u := range s.Upstreams {
		if u.Failures != 0 {
			t.Errorf("upstream %s failures = %d, want 0", u.Host, u.Failures)
		}
	}
	assertEPCInvariant(t, p)
}

// Both upstreams down: the pipeline fails over, the request fails, and
// each upstream's breaker is charged exactly once for this request.
func TestHedgeBothUpstreamsFailBreakerCountsOnce(t *testing.T) {
	deadA, deadB := reservePort(t), reservePort(t)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: deadA}, {Host: deadB}},
		AsyncOcalls: true,
		HedgeDelay:  250 * time.Millisecond, // failover beats the hedge timer
		HedgeMax:    1,
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

// Coalesced followers ride the leader's flight: no fetches and no hedges
// of their own, and the hedge budget is spent at most once per flight.
func TestCoalescedFollowersDoNotHedge(t *testing.T) {
	engA, srvA := newDelayEngine(t, 100*time.Millisecond)
	engB, srvB := newDelayEngine(t, 100*time.Millisecond)
	p, err := New(Config{
		K:           1,
		Seed:        1,
		Engines:     []EngineSpec{{Host: srvA.Addr()}, {Host: srvB.Addr()}},
		AsyncOcalls: true,
		HedgeDelay:  20 * time.Millisecond,
		HedgeMax:    1,
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
	if s.HedgeAttempts > 1 {
		t.Errorf("hedge attempts = %d: followers hedged", s.HedgeAttempts)
	}
	// One flight: at most the primary plus one hedge reached an engine.
	if trips := len(engA.QueryLog()) + len(engB.QueryLog()); trips > 2 {
		t.Errorf("engines saw %d trips for one coalesced flight", trips)
	}
	assertEPCInvariant(t, p)
}

// Config validation: hedging requires the async pipeline; malformed root
// pins are rejected.
func TestPipelineConfigValidation(t *testing.T) {
	if _, err := New(Config{
		K:        1,
		Engines:  []EngineSpec{{Host: "127.0.0.1:1"}},
		HedgeMax: 1,
	}); err == nil || !strings.Contains(err.Error(), "AsyncOcalls") {
		t.Errorf("hedging without async: err = %v", err)
	}
	// In-enclave TLS upstreams now ride the async pipeline; garbage pins
	// are still rejected, at registry build.
	if _, err := New(Config{
		K:           1,
		Engines:     []EngineSpec{{Host: "127.0.0.1:1", RootsPEM: []byte("not a cert")}},
		AsyncOcalls: true,
	}); err == nil || !strings.Contains(err.Error(), "RootsPEM") {
		t.Errorf("async with garbage RootsPEM: err = %v", err)
	}
	if _, err := New(Config{
		K:           1,
		Engines:     []EngineSpec{{Host: "127.0.0.1:1"}},
		AsyncOcalls: true,
		HedgeMax:    -1,
	}); err == nil {
		t.Error("negative HedgeMax accepted")
	}
	if _, err := New(Config{
		K:           1,
		Engines:     []EngineSpec{{Host: "127.0.0.1:1"}},
		AsyncOcalls: true,
		HedgeMax:    1,
		HedgeDelay:  -5 * time.Millisecond,
	}); err == nil || !strings.Contains(err.Error(), "HedgeDelay") {
		t.Errorf("negative HedgeDelay: err = %v, want rejection", err)
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
	if _, err := New(Config{
		K:             1,
		Engines:       []EngineSpec{{Host: "127.0.0.1:1"}},
		AsyncOcalls:   true,
		PipelineDepth: 8,
		EnclaveConfig: enclave.Config{AsyncWorkers: 8, AsyncRingDepth: 4},
	}); err == nil || !strings.Contains(err.Error(), "AsyncRingDepth") {
		t.Errorf("undersized AsyncRingDepth: err = %v, want rejection", err)
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
// churn.
func TestAbandonCancelsLoneLeader(t *testing.T) {
	_, srv := newDelayEngine(t, 300*time.Millisecond)
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

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = p.ServeQuery(ctx, "abandoned flight")
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
	defer pl.mu.Unlock()
	if len(pl.waiters) != 0 {
		t.Errorf("dispatcher state leaked: waiters=%d", len(pl.waiters))
	}
}

// The p95-derived hedge delay: configured delay wins, a cold upstream gets
// the default, a warm histogram drives it.
func TestAutoHedgeDelay(t *testing.T) {
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

	host := srv.Addr()
	if d := p.hedgeDelayFor(host); d != DefaultHedgeDelay {
		t.Errorf("cold delay = %v, want default %v", d, DefaultHedgeDelay)
	}
	f := p.conns.fetch
	for i := 0; i < autoHedgeMinSamples; i++ {
		f.record(host, 40*time.Millisecond)
	}
	d := p.hedgeDelayFor(host)
	if d < 35*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("derived delay = %v, want ~p95 of 40ms", d)
	}
	p.cfg.HedgeDelay = 7 * time.Millisecond
	if d := p.hedgeDelayFor(host); d != 7*time.Millisecond {
		t.Errorf("configured delay = %v, want 7ms", d)
	}
}
