package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/obs"
)

// pipelineRuntime is the untrusted half of the async request pipeline: it
// admits requests up to PipelineDepth, drains the enclave's completion
// ring through a pool of resume workers (each re-entering the enclave with
// the completions it found ready), routes final outcomes back to parked request
// goroutines, arms hedge timers, and aborts hedge losers. Nothing here is
// trusted — it moves opaque descriptors and timing around; every decision
// that matters (candidate choice, winner arbitration, breaker accounting,
// sealing) happens inside the enclave.
type pipelineRuntime struct {
	p     *Proxy
	depth int
	sem   chan struct{}

	mu      sync.Mutex
	waiters map[uint64]chan pendingOutcome
	// unclaimed stashes outcomes that arrived before their request
	// goroutine registered a waiter: the fetch is submitted inside the
	// stage-1 ecall, so a fast completion (immediate dial failure, warm
	// loopback engine) can race await(). Entries are consumed by await()
	// at registration time. abandoned marks ids whose caller genuinely
	// gave up (context cancelled); their late outcome is dropped — or, for
	// a follower claim, redeemed-and-discarded so the trusted entry frees.
	unclaimed map[uint64]pendingOutcome
	abandoned map[uint64]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	workers  sync.WaitGroup

	// Ecall batching (BatchMax >= 2): admitted plain/secure requests are
	// funneled through submitQ into one group-commit batcher goroutine
	// that vectorizes request crossings, and the resume workers drain
	// completions in batches of the same bound (one at a time when
	// batching is off). Handshakes and the control ecalls stay
	// singletons. submitQ is nil when batching is off. windowPays is the
	// batcher's one bit of feedback (see collect); only the batcher
	// goroutine touches it.
	batchMax    int
	batchWindow time.Duration
	submitQ     chan *batchItem
	bstats      *batchStats
	windowPays  bool
}

// pendingOutcome is what the dispatcher delivers to a parked request
// goroutine: the leader's final reply (or error), or a claim signal for a
// coalesced follower whose results are ready in-enclave.
type pendingOutcome struct {
	reply envelopeReply
	err   error
	claim bool
}

// resumeWorkerCount bounds how many completions are re-entered into the
// enclave concurrently. The resume ecall is the pipeline's CPU stage
// (parse → filter → cache → seal); a small pool keeps those stages
// overlapping without hogging TCS slots.
const resumeWorkerCount = 4

func newPipelineRuntime(p *Proxy, depth, batchMax int, batchWindow time.Duration) *pipelineRuntime {
	pl := &pipelineRuntime{
		p:           p,
		depth:       depth,
		sem:         make(chan struct{}, depth),
		waiters:     make(map[uint64]chan pendingOutcome),
		unclaimed:   make(map[uint64]pendingOutcome),
		abandoned:   make(map[uint64]struct{}),
		stop:        make(chan struct{}),
		batchMax:    batchMax,
		batchWindow: batchWindow,
		windowPays:  true,
	}
	if batchMax > 1 {
		// Buffered to the admission depth: a sender that won admission
		// always finds queue space, so enqueueing never blocks behind
		// the batcher's in-flight ecall.
		pl.submitQ = make(chan *batchItem, depth)
		pl.bstats = newBatchStats(batchMax)
	}
	return pl
}

// start spawns the resume workers and, when batching is on, the request
// batcher.
func (pl *pipelineRuntime) start() {
	for i := 0; i < resumeWorkerCount; i++ {
		pl.workers.Add(1)
		go pl.resumeLoop()
	}
	if pl.submitQ != nil {
		pl.workers.Add(1)
		go pl.batcherLoop()
	}
}

// stopDispatch halts the resume workers (shutdown/crash) and frees the
// outcome bookkeeping: with the workers gone no delivery will ever
// consume a stashed outcome or clear an abandoned mark, so entries from
// requests parked at teardown would otherwise linger for the life of the
// runtime.
func (pl *pipelineRuntime) stopDispatch() {
	pl.stopOnce.Do(func() { close(pl.stop) })
	pl.workers.Wait()
	pl.mu.Lock()
	pl.unclaimed = make(map[uint64]pendingOutcome)
	pl.abandoned = make(map[uint64]struct{})
	pl.mu.Unlock()
}

// drain waits for the admission semaphore to empty — every admitted
// request has delivered its final reply — bounded by ctx. Requests
// admitted while draining (direct-API callers racing shutdown) extend the
// wait; the HTTP front has already stopped accepting by the time Shutdown
// calls this.
func (pl *pipelineRuntime) drain(ctx context.Context) error {
	for {
		if pl.inFlight() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("proxy: pipeline drain: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// inFlight reports currently admitted requests (a Stats gauge).
func (pl *pipelineRuntime) inFlight() int { return len(pl.sem) }

// resumeLoop drains the completion ring into the "resume" ecall: the
// first ready completion is taken blocking, every other already-ready
// completion (up to BatchMax; none when batching is off) rides the same
// crossing, amortizing the re-entry transition, and the enclave's
// per-entry verdicts are routed to whoever is parked on them.
func (pl *pipelineRuntime) resumeLoop() {
	defer pl.workers.Done()
	comp := pl.p.encl.Completions()
	batch := make([][]byte, 0, max(pl.batchMax, 1))
	// Submission-time validation makes handler lookups infallible, so an
	// errored completion carries no token to route; an empty result is a
	// pure tls_step close batch, fire-and-forget. Neither is resumed.
	add := func(c enclave.AsyncCompletion) {
		if c.Err == nil && len(c.Result) > 0 {
			batch = append(batch, c.Result)
		}
	}
	for {
		select {
		case <-pl.stop:
			return
		case c := <-comp:
			batch = batch[:0]
			add(c)
		drain:
			for len(batch) < cap(batch) {
				select {
				case c := <-comp:
					add(c)
				default:
					break drain
				}
			}
			if len(batch) > 0 {
				pl.resume(batch)
			}
		}
	}
}

func (pl *pipelineRuntime) resume(batch [][]byte) {
	if pl.bstats != nil {
		pl.bstats.submitted.Add(1)
	}
	frames, err := pl.batchECall("resume", batch)
	if err != nil {
		return // enclave destroyed mid-flight
	}
	for _, raw := range frames {
		pl.routeResume(raw)
	}
}

// batchECall crosses the boundary once with the framed blobs and returns
// the per-entry reply frames, one per blob.
func (pl *pipelineRuntime) batchECall(name string, blobs [][]byte) ([][]byte, error) {
	out, err := pl.p.encl.ECall(context.Background(), name, encodeBatch(blobs))
	if err != nil {
		return nil, err
	}
	frames, err := decodeBatch(out)
	if err != nil || len(frames) != len(blobs) {
		return nil, fmt.Errorf("proxy: bad batch reply: %v", err)
	}
	return frames, nil
}

// routeResume routes one resume verdict to whoever is parked on it.
func (pl *pipelineRuntime) routeResume(out []byte) {
	var rr resumeReply
	if err := rr.decode(out); err != nil {
		return
	}
	// A terminal flight names its token on EVERY terminal shape — done,
	// orphan, late loser — so the step handler's per-token state
	// (tombstone, conn binding) is dropped exactly once. Must run before
	// the State gate: orphans terminate flights too.
	if rr.DoneToken != 0 {
		if f := pl.p.conns.fetch; f != nil {
			f.endFlight(rr.DoneToken)
		}
	}
	if rr.State != resumeDone {
		return
	}
	// Abort the losers before delivering the win.
	if f := pl.p.conns.fetch; f != nil {
		for _, tok := range rr.CancelTokens {
			f.cancelFetch(tok)
		}
	}
	var outcome pendingOutcome
	if rr.Err != "" {
		outcome.err = fmt.Errorf("%s", rr.Err)
	} else if err := outcome.reply.decode(rr.Reply); err != nil {
		outcome.err = fmt.Errorf("proxy: bad pipeline reply: %w", err)
	}
	pl.deliver(rr.PendingID, outcome)
	for _, wid := range rr.Waiters {
		pl.deliver(wid, pendingOutcome{claim: true})
	}
}

// deliver hands an outcome — a final reply, or a claim signal for a
// coalesced follower — to the goroutine parked on id. The send happens
// under the waiter lock: the channel is buffered and receives exactly one
// send, so this cannot block, and holding the lock serializes delivery
// against abandon. A missing waiter does NOT mean the caller gave up —
// the request goroutine may simply not have reached await() yet (the
// fetch was submitted inside the stage-1 ecall) — so the outcome is
// stashed for await() to consume. Only an id abandon() marked is truly
// gone: its outcome is dropped (a ready follower claim is redeemed and
// discarded so the trusted entry frees) and the mark released.
func (pl *pipelineRuntime) deliver(id uint64, out pendingOutcome) {
	pl.mu.Lock()
	if ch := pl.waiters[id]; ch != nil {
		delete(pl.waiters, id)
		ch <- out
		pl.mu.Unlock()
		return
	}
	if _, gone := pl.abandoned[id]; gone {
		delete(pl.abandoned, id)
		pl.mu.Unlock()
		if out.claim {
			pl.discardClaim(id)
		}
		return
	}
	pl.unclaimed[id] = out
	pl.mu.Unlock()
}

// discardClaim redeems and drops an abandoned follower's results.
func (pl *pipelineRuntime) discardClaim(id uint64) {
	_, _ = pl.control(context.Background(), "claim", id)
}

// control runs one of the pending-table ecalls ("hedge", "claim",
// "abandon") on parked request id and returns its reply: an encoded
// envelopeReply from "claim", JSON from the other two (controlJSON).
func (pl *pipelineRuntime) control(ctx context.Context, name string, id uint64) ([]byte, error) {
	arg, err := json.Marshal(pendingArg{PendingID: id})
	if err != nil {
		return nil, err
	}
	return pl.p.encl.ECall(ctx, name, arg)
}

func (pl *pipelineRuntime) controlJSON(ctx context.Context, name string, id uint64, reply any) error {
	out, err := pl.control(ctx, name, id)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, reply); err != nil {
		return fmt.Errorf("proxy: bad %s reply: %w", name, err)
	}
	return nil
}

// await parks the calling request goroutine until the dispatcher delivers
// its outcome, arming the hedge timer when the enclave said one is worth
// having.
func (pl *pipelineRuntime) await(ctx context.Context, reply envelopeReply) (envelopeReply, error) {
	id := reply.Pending
	ch := make(chan pendingOutcome, 1)
	pl.mu.Lock()
	if out, ok := pl.unclaimed[id]; ok {
		// The outcome beat us here (fetch completed before the stage-1
		// ecall's caller reached await): consume the stash directly.
		delete(pl.unclaimed, id)
		pl.mu.Unlock()
		return pl.consume(ctx, id, out)
	}
	pl.waiters[id] = ch
	pl.mu.Unlock()

	if reply.CanHedge {
		delay := pl.p.hedgeDelayFor(reply.Upstream)
		armed := time.Now()
		timer := time.AfterFunc(delay, func() { pl.fireHedge(id, armed) })
		defer timer.Stop()
	}

	select {
	case out := <-ch:
		return pl.consume(ctx, id, out)
	case <-ctx.Done():
		pl.abandon(id, ch)
		return envelopeReply{}, fmt.Errorf("proxy: pipelined request: %w", ctx.Err())
	case <-pl.stop:
		pl.abandon(id, ch)
		return envelopeReply{}, fmt.Errorf("proxy: pipeline stopped")
	}
}

// consume turns a delivered outcome into the caller's reply, redeeming a
// follower claim via the claim ecall.
func (pl *pipelineRuntime) consume(ctx context.Context, id uint64, out pendingOutcome) (envelopeReply, error) {
	if out.claim {
		var reply envelopeReply
		out, err := pl.control(ctx, "claim", id)
		if err != nil {
			if ctx.Err() != nil {
				// The claim ecall died on the caller's cancelled context;
				// free the trusted entry so it cannot leak.
				pl.discardClaim(id)
			}
			return reply, err
		}
		if err := reply.decode(out); err != nil {
			return reply, fmt.Errorf("proxy: bad claim reply: %w", err)
		}
		return reply, nil
	}
	return out.reply, out.err
}

// abandon unregisters a parked request whose caller gave up, consuming an
// outcome that raced in so a ready follower entry is still redeemed (and
// dropped) inside the enclave. When no outcome raced in, the id is marked
// abandoned so the eventual delivery is dropped rather than stashed, and
// the enclave is told: a lone leader's in-flight fetches are cancelled
// and its trusted entries freed — otherwise client-timeout storms against
// an unresponsive upstream would accumulate fetches past the
// PipelineDepth×(1+HedgeMax) bound the async sizing relies on.
func (pl *pipelineRuntime) abandon(id uint64, ch chan pendingOutcome) {
	pl.mu.Lock()
	delete(pl.waiters, id)
	out, raced := pl.unclaimed[id]
	if raced {
		// The outcome was stashed before any waiter registered — the
		// batched submit path abandons ids whose caller never reached
		// await(), so the stash (not the caller's channel) may hold the
		// delivery. Consume it here or it lingers forever.
		delete(pl.unclaimed, id)
	} else {
		select {
		case out = <-ch:
			raced = true
		default:
			pl.abandoned[id] = struct{}{}
		}
	}
	pl.mu.Unlock()
	if raced {
		if out.claim {
			pl.discardClaim(id)
		}
		return
	}
	if pl.p == nil {
		return // dispatcher-only unit tests
	}
	var ar abandonReply
	if err := pl.controlJSON(context.Background(), "abandon", id, &ar); err != nil {
		return // enclave destroyed mid-teardown; nothing left to cancel
	}
	if ar.Freed {
		// The enclave released the entry while live: no resume will ever
		// deliver this id, so the mark would otherwise linger forever.
		pl.mu.Lock()
		delete(pl.abandoned, id)
		pl.mu.Unlock()
	}
	if f := pl.p.conns.fetch; f != nil {
		for _, tok := range ar.CancelTokens {
			f.cancelFetch(tok)
		}
	}
}

// fireHedge asks the enclave to hedge a still-parked request; the enclave
// decides (health, HedgeMax, flight state), the runtime only times. When
// another hedge remains in budget, the timer re-arms against the upstream
// the hedge actually went to — its own p95 when warm, the documented
// DefaultHedgeDelay while cold. The primary's delay is stale at that
// point: re-using it would fire the next hedge near-immediately when the
// primary's history sits at the autoHedgeFloor, or effectively never when
// its p95 towers over the fresh upstream's. A timer firing after the
// request finalized gets {Hedged: false} and the chain stops.
func (pl *pipelineRuntime) fireHedge(id uint64, armed time.Time) {
	select {
	case <-pl.stop:
		return
	default:
	}
	var hr hedgeReply
	if err := pl.controlJSON(context.Background(), "hedge", id, &hr); err != nil {
		return
	}
	if hr.Hedged {
		// The hedge stage measures how long the request waited on its
		// primary before a hedge actually went out (timer arm → fire, for
		// fires the enclave accepted).
		pl.p.trusted.stages.Since(obs.StageHedge, armed)
	}
	if hr.Hedged && hr.CanHedge {
		next := pl.p.hedgeDelayFor(hr.Upstream)
		rearmed := time.Now()
		time.AfterFunc(next, func() { pl.fireHedge(id, rearmed) })
	}
}

// run serves one query envelope (plain or secure) and keeps the node's
// request counters and latency histogram. Blocking, it is the "request"
// ecall; pipelined, it is admit, the request crossing (batched when the
// batcher runs), then either the short-circuit reply or a park-and-await.
func (p *Proxy) run(ctx context.Context, req envelope) (reply envelopeReply, err error) {
	p.requests.Add(1)
	p.inflight.Add(1)
	start := time.Now()
	defer func() {
		p.inflight.Add(-1)
		p.trusted.stages.Since(obs.StageReply, start)
		if err != nil {
			p.errors.Add(1)
			reply = envelopeReply{}
			return
		}
		p.latency.Record(time.Since(start))
	}()
	pl := p.pipeline
	if pl == nil {
		return p.ecall(ctx, req)
	}
	select {
	case pl.sem <- struct{}{}:
	case <-ctx.Done():
		return reply, fmt.Errorf("proxy: pipeline admission: %w", ctx.Err())
	case <-pl.stop:
		return reply, fmt.Errorf("proxy: pipeline stopped")
	}
	p.trusted.stages.Since(obs.StageAdmit, start)
	defer func() { <-pl.sem }()

	if pl.submitQ != nil {
		reply, err = pl.runBatched(ctx, req)
	} else {
		reply, err = p.ecall(ctx, req)
	}
	if err != nil || reply.Pending == 0 {
		return reply, err
	}
	return pl.await(ctx, reply)
}

// hedgeDelayFor resolves the effective hedge delay for a request whose
// primary fetch went to host: the configured HedgeDelay, or — when zero —
// the p95 of host's observed fetch latency once enough samples exist
// (hedging above p95 keeps the duplicate-request rate near 5%, the
// tail-at-scale guidance), else DefaultHedgeDelay while cold.
func (p *Proxy) hedgeDelayFor(host string) time.Duration {
	if p.cfg.HedgeDelay > 0 {
		return p.cfg.HedgeDelay
	}
	if f := p.conns.fetch; f != nil {
		if h := f.latencyFor(host); h != nil && h.Count() >= autoHedgeMinSamples {
			d := h.Percentile(95)
			if d < autoHedgeFloor {
				d = autoHedgeFloor
			}
			return d
		}
	}
	return DefaultHedgeDelay
}

const (
	// autoHedgeMinSamples is how many completed fetches an upstream needs
	// before its p95 drives the hedge delay.
	autoHedgeMinSamples = 16
	// autoHedgeFloor keeps a very fast upstream's derived delay from
	// collapsing to the histogram's microsecond floor and hedging every
	// request.
	autoHedgeFloor = time.Millisecond
)

// batchItem is one admitted request riding the group-commit batcher. The
// done channel is buffered so delivery never blocks; gone flags a caller
// that stopped waiting (context cancelled, pipeline stopping) so whichever
// side ends up consuming the raced outcome abandons the parked entry.
type batchItem struct {
	arg  []byte
	done chan pendingOutcome
	gone atomic.Bool
}

// runBatched routes an admitted plain/secure request through the ecall
// batcher instead of a singleton "request" ecall. The caller still parks
// in await() for its final outcome; only the boundary crossing is shared.
func (pl *pipelineRuntime) runBatched(ctx context.Context, req envelope) (envelopeReply, error) {
	item := &batchItem{arg: req.encode(), done: make(chan pendingOutcome, 1)}
	submitStart := time.Now()
	select {
	case pl.submitQ <- item:
	case <-ctx.Done():
		return envelopeReply{}, fmt.Errorf("proxy: batch submit: %w", ctx.Err())
	case <-pl.stop:
		return envelopeReply{}, fmt.Errorf("proxy: pipeline stopped")
	}
	select {
	case out := <-item.done:
		// The submit stage measures the batcher hold: queue wait plus
		// group-commit window plus the shared stage-1 crossing.
		pl.p.trusted.stages.Since(obs.StageSubmit, submitStart)
		return out.reply, out.err
	case <-ctx.Done():
		pl.forsake(item)
		return envelopeReply{}, fmt.Errorf("proxy: batched request: %w", ctx.Err())
	case <-pl.stop:
		pl.forsake(item)
		return envelopeReply{}, fmt.Errorf("proxy: pipeline stopped")
	}
}

// forsake marks a batch item whose caller stopped waiting, then reaps an
// outcome that raced in. Both the forsaking caller and the delivering
// batcher attempt the same reap after observing gone; the buffered
// channel holds at most one outcome, so exactly one side wins it and owns
// abandoning the parked entry — the other side's receive simply misses.
func (pl *pipelineRuntime) forsake(item *batchItem) {
	item.gone.Store(true)
	pl.reap(item)
}

// reap drains an outcome nobody will consume and abandons the request it
// parked. The fresh channel handed to abandon can never hold a delivery
// (no waiter was ever registered for the id); abandon's unclaimed-stash
// check covers a final outcome that already landed.
func (pl *pipelineRuntime) reap(item *batchItem) {
	select {
	case out := <-item.done:
		if out.err == nil && out.reply.Pending != 0 {
			pl.abandon(out.reply.Pending, make(chan pendingOutcome, 1))
		}
	default:
	}
}

// batcherLoop is group commit at the ecall seam, one goroutine on purpose:
// while its batch ecall runs, newly admitted requests pile into submitQ,
// so the next batch is naturally fuller — load, not a tuning knob, decides
// the amortization.
func (pl *pipelineRuntime) batcherLoop() {
	defer pl.workers.Done()
	for {
		select {
		case <-pl.stop:
			return
		case first := <-pl.submitQ:
			pl.dispatchBatch(pl.collect(first))
		}
	}
}

// collect forms one batch around the first queued request: whatever else
// is already queued is drained opportunistically, and then the batch may
// be held for up to BatchWindow toward a full one. What the hold waits
// for is a companion, and it has to have been seen to come:
//
//   - two or more drained together are the evidence itself — the batch
//     is held, and windowPays is set;
//   - a lone request is held on the strength of the admission gauge
//     (more requests admitted than collected: concurrency is present even
//     when the scheduler hands submissions over one at a time) only while
//     windowPays — while the last such hold actually collected a
//     companion. One that comes back empty clears the bit, and lone
//     requests cross immediately until a drain finds company again;
//   - a genuinely idle proxy (sole request in flight) never waits.
//
// Without the bit, admitted-but-elsewhere was taken for about-to-submit:
// a few closed-loop callers parked at a slow engine (the bench's
// `pipeline`: 4 callers, 2 ms engine, occupancy p50 = 1) paid the whole
// window plus its timer slop on every request for batches that cannot
// form — their peers are waiting on the network, not on the batcher.
// Under load that does queue (16 workers behind a 200 µs transition;
// TestQueuedRequestsCrossInOneBatch) a drain finds company: no change.
func (pl *pipelineRuntime) collect(first *batchItem) []*batchItem {
	batch := append(make([]*batchItem, 0, pl.batchMax), first)
drain:
	for len(batch) < pl.batchMax {
		select {
		case it := <-pl.submitQ:
			batch = append(batch, it)
		default:
			break drain
		}
	}
	lone := len(batch) == 1
	if !lone {
		pl.windowPays = true
	}
	if len(batch) == pl.batchMax || pl.batchWindow <= 0 ||
		lone && !(pl.windowPays && pl.inFlight() > 1) {
		return batch
	}
	timer := time.NewTimer(pl.batchWindow)
fill:
	for len(batch) < pl.batchMax {
		select {
		case it := <-pl.submitQ:
			batch = append(batch, it)
		case <-timer.C:
			break fill
		case <-pl.stop:
			break fill
		}
	}
	timer.Stop()
	if lone {
		pl.windowPays = len(batch) > 1
	}
	return batch
}

// dispatchBatch submits one request batch through the vectorized ecall
// and routes per-entry replies back to the queued callers. A failed batch
// ecall (enclave destroyed mid-flight) errors every entry — a queued
// caller is never left parked.
func (pl *pipelineRuntime) dispatchBatch(batch []*batchItem) {
	pl.bstats.record(len(batch))
	blobs := make([][]byte, len(batch))
	for i, it := range batch {
		blobs[i] = it.arg
	}
	frames, err := pl.batchECall("request-batch", blobs)
	for i, it := range batch {
		var item batchItemReply
		var outc pendingOutcome
		if err != nil {
			outc.err = err
		} else if uerr := item.decode(frames[i]); uerr != nil {
			outc.err = fmt.Errorf("proxy: bad batch entry reply: %w", uerr)
		} else if item.Err != "" {
			outc.err = errors.New(item.Err)
		} else if uerr := outc.reply.decode(item.Reply); uerr != nil {
			outc.err = fmt.Errorf("proxy: bad batch entry reply: %w", uerr)
		}
		pl.deliverBatchItem(it, outc)
	}
}

// deliverBatchItem hands one entry's request-crossing outcome to its
// queued caller, then re-checks the gone flag: a caller that forsook the
// item concurrently may have missed this delivery, in which case this side
// reaps it (see forsake for the exactly-one-consumer argument).
func (pl *pipelineRuntime) deliverBatchItem(it *batchItem, out pendingOutcome) {
	it.done <- out
	if it.gone.Load() {
		pl.reap(it)
	}
}

// batchStats tracks batched boundary crossings: a total counter (request
// plus resume batches) and an occupancy histogram over request batches —
// how many requests shared one transition, the distribution BatchWindow
// trades latency against.
type batchStats struct {
	submitted atomic.Uint64
	mu        sync.Mutex
	occ       []uint64 // index = request-batch occupancy
}

func newBatchStats(max int) *batchStats {
	return &batchStats{occ: make([]uint64, max+1)}
}

func (bs *batchStats) record(n int) {
	bs.submitted.Add(1)
	if n >= len(bs.occ) {
		n = len(bs.occ) - 1
	}
	bs.mu.Lock()
	bs.occ[n]++
	bs.mu.Unlock()
}

// percentiles returns the request-batch occupancy p50/p95 (0 when no
// request batch has been submitted yet).
func (bs *batchStats) percentiles() (p50, p95 float64) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	var total uint64
	for _, c := range bs.occ {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	pct := func(p float64) float64 {
		target := uint64(math.Ceil(p / 100 * float64(total)))
		if target < 1 {
			target = 1
		}
		var cum uint64
		for i, c := range bs.occ {
			cum += c
			if cum >= target {
				return float64(i)
			}
		}
		return float64(len(bs.occ) - 1)
	}
	return pct(50), pct(95)
}
