package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/enclave"
)

// Tests for the batched ecall seam: the wire framing, the group-commit
// batcher, the vectorized request/resume handlers, and the edge cases the
// batching work shook out of the hedging and abandon paths.

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{[]byte("one")},
		{[]byte("a"), []byte("bb"), []byte("ccc")},
		{[]byte(""), []byte("after empty")},
		{bytes.Repeat([]byte{0xff, 0x00}, 512)},
	}
	for i, entries := range cases {
		got, err := decodeBatch(encodeBatch(entries))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(got) != len(entries) {
			t.Fatalf("case %d: %d entries, want %d", i, len(got), len(entries))
		}
		for j := range entries {
			if !bytes.Equal(got[j], entries[j]) {
				t.Errorf("case %d entry %d: %q != %q", i, j, got[j], entries[j])
			}
		}
	}
}

// The trusted decoder treats batch frames as hostile input: every
// malformed shape must fail cleanly instead of panicking or allocating
// from an attacker-chosen length.
func TestBatchCodecHostileInput(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0}},
		{"zero count", []byte{0, 0, 0, 0}},
		{"huge count", []byte{0xff, 0xff, 0xff, 0xff}},
		{"missing entry header", []byte{1, 0, 0, 0, 5}},
		{"entry past cap", []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}},
		{"truncated entry", []byte{1, 0, 0, 0, 9, 0, 0, 0, 'x', 'y'}},
		{"trailing bytes", append(encodeBatch([][]byte{[]byte("ok")}), 0xAA)},
		{"count overshoots entries", []byte{2, 0, 0, 0, 1, 0, 0, 0, 'x'}},
	}
	for _, tc := range cases {
		if _, err := decodeBatch(tc.data); err == nil {
			t.Errorf("%s: decode accepted malformed frame", tc.name)
		}
	}
}

// New() must reject every inconsistent batching shape, and the ring-sizing
// floor must account for the batcher's burst submissions on top of the
// pipeline's own PipelineDepth×(1+HedgeMax) need.
func TestBatchConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{K: 1, Engines: []EngineSpec{{Host: "127.0.0.1:1"}}}
	}
	{
		cfg := base()
		cfg.BatchMax = -1
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "BatchMax") {
			t.Errorf("negative BatchMax: err = %v, want rejection", err)
		}
	}
	{
		cfg := base()
		cfg.AsyncOcalls = true
		cfg.BatchMax = 1
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "BatchMax") {
			t.Errorf("BatchMax 1: err = %v, want rejection (1 is the unbatched path)", err)
		}
	}
	{
		cfg := base()
		cfg.BatchMax = 4 // no AsyncOcalls
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "AsyncOcalls") {
			t.Errorf("batching without async: err = %v, want rejection", err)
		}
	}
	{
		cfg := base()
		cfg.AsyncOcalls = true
		cfg.BatchMax = 4
		cfg.BatchWindow = -time.Millisecond
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "BatchWindow") {
			t.Errorf("negative BatchWindow: err = %v, want rejection", err)
		}
	}
	{
		cfg := base()
		cfg.AsyncOcalls = true
		cfg.BatchWindow = time.Millisecond // window without BatchMax
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "BatchWindow") {
			t.Errorf("BatchWindow without BatchMax: err = %v, want rejection", err)
		}
	}
	{
		cfg := base()
		cfg.AsyncOcalls = true
		cfg.PipelineDepth = 4
		cfg.BatchMax = 8 // a batch cannot fill past admission
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "BatchMax") {
			t.Errorf("BatchMax > PipelineDepth: err = %v, want rejection", err)
		}
	}
	// Ring sizing: the batcher can hold a TCS while bursting up to
	// BatchMax submissions, so explicit worker/ring sizes must clear
	// PipelineDepth*(1+HedgeMax) + BatchMax or stage-1 ecalls can block
	// on a full ring while holding every TCS.
	{
		cfg := base()
		cfg.AsyncOcalls = true
		cfg.PipelineDepth = 8
		cfg.BatchMax = 8
		cfg.EnclaveConfig = enclave.Config{AsyncWorkers: 8}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "AsyncWorkers") ||
			!strings.Contains(err.Error(), "batch-burst") {
			t.Errorf("undersized AsyncWorkers with batching: err = %v, want batch-burst rejection", err)
		}
	}
	{
		cfg := base()
		cfg.AsyncOcalls = true
		cfg.PipelineDepth = 8
		cfg.BatchMax = 8
		cfg.EnclaveConfig = enclave.Config{AsyncWorkers: 16, AsyncRingDepth: 8}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "AsyncRingDepth") {
			t.Errorf("undersized AsyncRingDepth with batching: err = %v, want rejection", err)
		}
	}
	// A coherent batching config builds, defaults the window, and sizes
	// the rings itself.
	{
		cfg := base()
		cfg.Seed = 1
		cfg.AsyncOcalls = true
		cfg.PipelineDepth = 8
		cfg.BatchMax = 8
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("valid batching config rejected: %v", err)
		}
		defer p.Crash()
		if p.cfg.BatchWindow != DefaultBatchWindow {
			t.Errorf("BatchWindow = %v, want default %v", p.cfg.BatchWindow, DefaultBatchWindow)
		}
	}
}

// End-to-end through the batched seam: concurrent plain and secure traffic
// is served through request-batch/resume ecalls with per-request
// semantics intact, the occupancy gauges move, and the EPC invariant holds.
func TestBatchedPipelineServesQueries(t *testing.T) {
	_, srv := newDelayEngine(t, 2*time.Millisecond)
	p, err := New(Config{
		K:             1,
		Seed:          1,
		Engines:       []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls:   true,
		PipelineDepth: 16,
		BatchMax:      8,
		CacheBytes:    1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 12, 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("batched query %d-%d", w, i)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Secure traffic rides the same batcher (the handshake itself stays a
	// singleton ecall).
	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	reqPT, _ := json.Marshal(secureRequest{Query: "batched secure query"})
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

	s := p.Stats()
	if s.BatchesSubmitted == 0 {
		t.Error("BatchesSubmitted = 0: traffic bypassed the batcher")
	}
	if s.BatchOccupancyP50 < 1 {
		t.Errorf("BatchOccupancyP50 = %v, want >= 1", s.BatchOccupancyP50)
	}
	if s.AsyncSubmitted == 0 {
		t.Error("no async fetches submitted")
	}
	assertEPCInvariant(t, p)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with batching enabled: %v", err)
	}
}

// burstEnv is a fake enclave.Env whose async submission ring "destroys"
// after a set number of submissions: every later OCallAsync fails with
// ErrDestroyed, exactly what a destroy concurrent with a mid-burst batch
// ecall looks like from inside the enclave.
type burstEnv struct {
	mu    sync.Mutex
	allow int
	calls int
}

func (f *burstEnv) OCall(string, []byte) ([]byte, error) {
	return nil, fmt.Errorf("unexpected sync ocall")
}

func (f *burstEnv) OCallAsync(string, []byte) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls > f.allow {
		return 0, enclave.ErrDestroyed
	}
	return uint64(f.calls), nil
}

func (f *burstEnv) Alloc(int64) error { return nil }
func (f *burstEnv) Free(int64)        {}
func (f *burstEnv) Read(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

// Destroy mid-burst: a request-batch ecall submitting its fetch burst when
// the enclave is destroyed must fail every not-yet-submitted entry with a
// terminal error and roll its table state back — not leave entries parked
// with no fetch in flight (no resume would ever finalize them, and their
// callers would hang until their contexts expired). This is the batched
// path's version of OCallAsync's per-call destroy re-check guarantee.
func TestBatchDestroyMidBurst(t *testing.T) {
	history, err := core.NewHistory(64)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := core.NewObfuscator(history, 1, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{UpstreamFailThreshold: 3, UpstreamCooldown: time.Second}
	registry, err := buildRegistry([]EngineSpec{{Host: "127.0.0.1:9999", Weight: 1}}, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := &trustedState{
		obfuscator: ob,
		perList:    5,
		registry:   registry,
		pending:    newPendingTable(),
	}

	const entries, allowed = 4, 2
	blobs := make([][]byte, entries)
	for i := range blobs {
		req := envelope{Type: typePlain, ID: uint64(i + 1), Query: fmt.Sprintf("burst query %d", i)}
		blobs[i] = req.encode()
	}
	env := &burstEnv{allow: allowed}
	out, err := ts.handleRequestBatch(env, encodeBatch(blobs))
	if err != nil {
		t.Fatalf("batch ecall failed as a whole: %v (per-entry errors must travel in the frame)", err)
	}
	replies, err := decodeBatch(out)
	if err != nil || len(replies) != entries {
		t.Fatalf("bad batch reply: %v (%d entries)", err, len(replies))
	}
	for i, raw := range replies {
		var item batchItemReply
		if err := item.decode(raw); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if i < allowed {
			if item.Err != "" {
				t.Errorf("entry %d (submitted before destroy): err %q", i, item.Err)
				continue
			}
			var reply envelopeReply
			if err := reply.decode(item.Reply); err != nil || reply.Pending == 0 {
				t.Errorf("entry %d: not parked (%v, %+v)", i, err, reply)
			}
		} else if !strings.Contains(item.Err, "destroyed") {
			t.Errorf("entry %d (submitted after destroy): err %q, want a terminal ErrDestroyed failure", i, item.Err)
		}
	}
	if env.calls != entries {
		t.Errorf("OCallAsync called %d times, want %d (every entry must individually observe the destroy)", env.calls, entries)
	}
	// Only the successfully submitted entries remain parked; the failed
	// ones rolled back their reservations.
	pt := ts.pending
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if len(pt.byID) != allowed || len(pt.byToken) != allowed {
		t.Errorf("pending table holds %d ids / %d tokens, want %d/%d: failed entries left parked",
			len(pt.byID), len(pt.byToken), allowed, allowed)
	}
	for id, p := range pt.byID {
		if p.done {
			t.Errorf("parked request %d marked done", id)
		}
	}
}

// Auto hedge-delay re-arm: after the first hedge goes to a different
// upstream, the next hedge timer must be derived from THAT upstream's
// latency profile — DefaultHedgeDelay while it is cold — not from the
// primary's stale delay. Pre-fix, the re-arm reused the primary's derived
// delay: with a warm fast primary sitting at the 1ms floor, the second
// hedge fired ~1ms after the first, burning the hedge budget near-
// instantly against a fresh upstream that had had no chance to answer.
func TestHedgeRearmUsesHedgedUpstreamDelay(t *testing.T) {
	_, slowA := newDelayEngine(t, 300*time.Millisecond)
	_, slowB := newDelayEngine(t, 300*time.Millisecond)
	_, fastC := newDelayEngine(t, 0)
	p, err := New(Config{
		K:    1,
		Seed: 1,
		Engines: []EngineSpec{
			{Host: slowA.Addr()}, // weighted-ring slot 0: primary of request 1
			{Host: slowB.Addr()}, // first hedge target: cold
			{Host: fastC.Addr()}, // second hedge target
		},
		AsyncOcalls: true,
		HedgeMax:    2,
		// HedgeDelay zero: the p95-auto path under test.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	// Warm the primary's histogram to a tiny p95 so its derived delay sits
	// at the 1ms floor — the stale value the buggy re-arm reused.
	f := p.conns.fetch
	for i := 0; i < autoHedgeMinSamples; i++ {
		f.record(slowA.Addr(), 100*time.Microsecond)
	}
	if d := p.hedgeDelayFor(slowA.Addr()); d != autoHedgeFloor {
		t.Fatalf("warm primary delay = %v, want floor %v", d, autoHedgeFloor)
	}
	if d := p.hedgeDelayFor(slowB.Addr()); d != DefaultHedgeDelay {
		t.Fatalf("cold upstream delay = %v, want default %v", d, DefaultHedgeDelay)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.ServeQuery(context.Background(), "cold rearm query")
		done <- err
	}()

	// Hedge 1 fires ~1ms in (the warm primary's floor delay). Catch it,
	// then hold: the re-arm against the cold upstream owes
	// DefaultHedgeDelay (10ms), so hedge 2 must NOT land within the next
	// few milliseconds. The buggy re-arm fired it ~1ms later.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().HedgeAttempts < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first hedge never fired")
		}
		time.Sleep(200 * time.Microsecond)
	}
	hold := time.Now().Add(5 * time.Millisecond)
	for time.Now().Before(hold) {
		if n := p.Stats().HedgeAttempts; n > 1 {
			t.Fatalf("second hedge fired %v into the cold upstream's %v window: re-arm used the primary's stale delay",
				DefaultHedgeDelay-time.Until(hold), DefaultHedgeDelay)
		}
		time.Sleep(200 * time.Microsecond)
	}

	if err := <-done; err != nil {
		t.Fatalf("query: %v", err)
	}
	// The second hedge (to the fast upstream) eventually fired and won.
	s := p.Stats()
	if s.HedgeAttempts != 2 {
		t.Errorf("hedge attempts = %d, want 2", s.HedgeAttempts)
	}
	assertEPCInvariant(t, p)
}

// Completion-batch delivery racing request abandon: batched stage-1 means a
// caller can give up between queueing its item and the batcher submitting
// it, and completions arrive via batched resumes while callers time out. No
// interleaving may leak a registered waiter or a parked request, or break
// the EPC invariant.
func TestBatchCompletionVsAbandonRace(t *testing.T) {
	_, srv := newDelayEngine(t, 3*time.Millisecond)
	p, err := New(Config{
		K:             1,
		Seed:          1,
		Engines:       []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls:   true,
		PipelineDepth: 16,
		BatchMax:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	const workers, perWorker = 10, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			for i := 0; i < perWorker; i++ {
				// Timeouts straddle the engine delay: some requests win,
				// some abandon mid-flight, some abandon pre-submission.
				timeout := time.Duration(rng.IntN(8)+1) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_, _ = p.ServeQuery(ctx, fmt.Sprintf("race query %d-%d", w, i))
				cancel()
			}
		}(w)
	}
	wg.Wait()

	// Stragglers resolve asynchronously (a Pending reply finding its waiter
	// gone, abandon ecalls freeing entries): poll for convergence.
	pl := p.pipeline
	waitRendezvousEmpty(t, p)
	if n := pl.inFlight(); n != 0 {
		t.Errorf("inFlight = %d after every caller returned", n)
	}
	if p.Stats().BatchesSubmitted == 0 {
		t.Error("BatchesSubmitted = 0: the race never exercised the batcher")
	}
	assertEPCInvariant(t, p)
}

// ObfuscateBatch must preserve Obfuscate's sequential semantics exactly:
// same seed, same queries, same draws — batch entry i matches what the i-th
// sequential Obfuscate call would have produced, including later queries
// sampling earlier batch entries as noise.
func TestObfuscateBatchMatchesSequential(t *testing.T) {
	queries := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

	seqHist, _ := core.NewHistory(64)
	seqOb, _ := core.NewObfuscator(seqHist, 2, core.WithSeed(7))
	var seqOut []core.ObfuscatedQuery
	var seqDelta int64
	// Pre-warm so sampling has material.
	for _, q := range []string{"warm one", "warm two", "warm three"} {
		_, d := seqOb.Obfuscate(q)
		seqDelta += d
	}
	for _, q := range queries {
		oq, d := seqOb.Obfuscate(q)
		seqOut = append(seqOut, oq)
		seqDelta += d
	}

	batHist, _ := core.NewHistory(64)
	batOb, _ := core.NewObfuscator(batHist, 2, core.WithSeed(7))
	var batDelta int64
	for _, q := range []string{"warm one", "warm two", "warm three"} {
		_, d := batOb.Obfuscate(q)
		batDelta += d
	}
	batOut, d := batOb.ObfuscateBatch(queries)
	batDelta += d

	if batDelta != seqDelta {
		t.Errorf("aggregate delta %d != sequential %d", batDelta, seqDelta)
	}
	if len(batOut) != len(seqOut) {
		t.Fatalf("%d batch outputs, want %d", len(batOut), len(seqOut))
	}
	for i := range seqOut {
		if batOut[i].OriginalIndex != seqOut[i].OriginalIndex ||
			strings.Join(batOut[i].Subqueries, "|") != strings.Join(seqOut[i].Subqueries, "|") {
			t.Errorf("entry %d diverged:\n batch: %v @%d\n   seq: %v @%d",
				i, batOut[i].Subqueries, batOut[i].OriginalIndex,
				seqOut[i].Subqueries, seqOut[i].OriginalIndex)
		}
	}
}

// The group-commit window must pay for itself. A lone request whose peers
// are admitted but parked elsewhere (at a slow engine, not on their way to
// the batcher) is held for the window once; when that hold comes back
// empty the batcher stops holding lone requests, until a drain finds two
// queued together. collect is driven synchronously here, and every phase
// that must NOT wait runs under a 5 s window, so the wall clock can fail
// the test only one way.
func TestBatchWindowMustPayForItself(t *testing.T) {
	pl := newPipelineRuntime(nil, 8, 8, time.Millisecond)
	for i := 0; i < 4; i++ {
		pl.sem <- struct{}{} // four admitted: this request and three parked peers
	}
	if got := pl.collect(batchItem{}); len(got) != 1 {
		t.Fatalf("first lone collect returned %d items", len(got))
	}
	if pl.windowPays {
		t.Fatal("an empty window left the batcher still expecting companions")
	}

	immediate := func(what string, want int) {
		t.Helper()
		start := time.Now()
		if got := pl.collect(batchItem{}); len(got) != want {
			t.Fatalf("%s: %d items, want %d", what, len(got), want)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s waited %v of the 5s window", what, d)
		}
	}
	pl.batchWindow = 5 * time.Second
	immediate("lone request after an empty window", 1)

	// Company in the queue re-arms the bit (and a full batch never waits).
	for i := 0; i < 7; i++ {
		pl.submitQ <- batchItem{}
	}
	immediate("full batch", 8)
	if !pl.windowPays {
		t.Fatal("a drain that found company did not re-arm the window")
	}

	// Re-armed, a lone request is held again — and a companion arriving
	// inside the window is collected and keeps the bit set.
	go func() {
		time.Sleep(20 * time.Millisecond)
		pl.submitQ <- batchItem{}
	}()
	pl.batchMax = 2 // so the companion completes the batch and ends the hold
	immediate("held request joined by a companion", 2)
	if !pl.windowPays {
		t.Fatal("a window that collected a companion cleared the bit")
	}

	// A sole request in flight never waits, whatever the bit says.
	for len(pl.sem) > 1 {
		<-pl.sem
	}
	immediate("idle proxy", 1)
}

// Whatever is already queued when the batcher turns to the queue crosses
// in ONE request-batch: N items enqueued before it runs share a crossing
// (occupancy N) without waiting out the window.
func TestQueuedRequestsCrossInOneBatch(t *testing.T) {
	const n = 4
	p, err := New(Config{K: 1, Seed: 1, EchoMode: true, AsyncOcalls: true,
		BatchMax: n, BatchWindow: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	// A second runtime over the same enclave, its batcher not yet started.
	pl := newPipelineRuntime(p, n, n, 5*time.Second)
	defer pl.stopDispatch()
	waiting := make([]chan pendingOutcome, n)
	for i := range waiting {
		req := envelope{Type: typePlain, Query: fmt.Sprintf("queued before the batcher ran %d", i)}
		req.ID, waiting[i] = pl.register()
		pl.submitQ <- batchItem{id: req.ID, arg: req.encode(), queued: time.Now()}
	}
	ecallsBefore := p.Stats().Enclave.ECalls
	pl.workers.Add(1)
	go pl.batcherLoop()
	for i, ch := range waiting {
		select {
		case out := <-ch:
			if out.err != nil {
				t.Fatalf("item %d: %v", i, out.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("item %d still queued: the batcher waited on a batch that was already full", i)
		}
	}
	if p50, p95 := pl.bstats.percentiles(); p50 != n || p95 != n {
		t.Errorf("request-batch occupancy p50/p95 = %v/%v, want %d/%d", p50, p95, n, n)
	}
	if got := p.Stats().Enclave.ECalls - ecallsBefore; got != 1 {
		t.Errorf("%d ecalls for %d queued requests, want 1", got, n)
	}
}
