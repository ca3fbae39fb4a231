package proxy

import (
	"context"
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
// admits requests up to PipelineDepth, names each one and crosses it into
// the enclave, drains the enclave's completion ring through a pool of
// resume workers (each re-entering the enclave with the completions it
// found ready), routes outcomes back to the waiting request goroutines,
// and aborts the fetches of abandoned requests. Nothing here is trusted —
// it moves opaque descriptors and timing around; every decision that
// matters (candidate choice, failover, breaker accounting, sealing)
// happens inside the enclave.
type pipelineRuntime struct {
	p     *Proxy
	depth int
	sem   chan struct{}

	// waiters is the whole rendezvous: a request is registered under a fresh
	// id BEFORE it crosses and until its caller leaves, so no outcome can
	// beat its waiter here, and an id with no waiter means its caller has
	// gone — a final outcome for it is dropped, a Pending one is answered
	// with "abandon" (deliver).
	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan pendingOutcome

	// crossings counts request crossings not yet back out of the enclave:
	// queued for the batcher or inside "request"/"request-batch". It
	// outlives the admission slot — a caller that gives up leaves its
	// queued request to cross without it, obfuscation and its EPC charge
	// included — so it, not inFlight, says when no request crossing can
	// still move the meter. A count only: it carries no content.
	crossings atomic.Int64

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
	submitQ     chan batchItem
	bstats      *batchStats
	windowPays  bool
}

// pendingOutcome is what reaches a waiting request goroutine: its
// crossing's reply — Pending when the request parked — and then, for a
// parked one, the final reply a "resume" carried out. An error is final.
type pendingOutcome struct {
	reply envelopeReply
	err   error
}

func (o *pendingOutcome) final() bool { return o.err != nil || o.reply.Pending == 0 }

// outcomeOf decodes the (encoded reply, error string) pair in which the
// enclave frames one request's outcome.
func outcomeOf(reply []byte, errstr string) (out pendingOutcome) {
	if errstr != "" {
		out.err = errors.New(errstr)
	} else if err := out.reply.decode(reply); err != nil {
		out.err = fmt.Errorf("proxy: bad pipeline reply: %w", err)
	}
	return out
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
		stop:        make(chan struct{}),
		batchMax:    batchMax,
		batchWindow: batchWindow,
		windowPays:  true,
	}
	if batchMax > 1 {
		// Buffered to the admission depth: a sender that won admission
		// always finds queue space, so enqueueing never blocks behind
		// the batcher's in-flight ecall.
		pl.submitQ = make(chan batchItem, depth)
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

// stopDispatch halts the resume workers and the batcher (shutdown/crash).
// Requests still waiting see the stop themselves and leave (wait).
func (pl *pipelineRuntime) stopDispatch() {
	pl.stopOnce.Do(func() { close(pl.stop) })
	pl.workers.Wait()
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
	// orphan, failover — so the step handler's per-token state
	// (tombstone, conn binding) is dropped exactly once. Must run before
	// the State gate: orphans terminate flights too.
	if rr.DoneToken != 0 {
		pl.p.conns.fetch.endFlight(rr.DoneToken)
	}
	if rr.State != resumeDone {
		return
	}
	pl.deliver(rr.PendingID, outcomeOf(rr.Reply, rr.Err))
	for _, f := range rr.Followers {
		pl.deliver(f.ID, outcomeOf(f.Reply, f.Err))
	}
}

// register names a request about to cross and parks its caller's channel
// under the name until the caller leaves (wait). Capacity 2 — the
// crossing's outcome, then (when that one is Pending) the final one — so
// a send never blocks.
func (pl *pipelineRuntime) register() (uint64, chan pendingOutcome) {
	ch := make(chan pendingOutcome, 2)
	pl.mu.Lock()
	pl.nextID++
	id := pl.nextID
	pl.waiters[id] = ch
	pl.mu.Unlock()
	return id, ch
}

// deliver hands an outcome to the goroutine waiting on id. The send
// happens under the lock, which serializes it against the waiter leaving.
// No waiter means the caller has gone — given up, or home already with a
// final outcome that overtook this one: a final outcome is dropped, a
// Pending one — a request parked for nobody — is abandoned.
func (pl *pipelineRuntime) deliver(id uint64, out pendingOutcome) {
	pl.mu.Lock()
	ch := pl.waiters[id]
	if ch != nil {
		ch <- out
	}
	pl.mu.Unlock()
	if ch == nil && !out.final() {
		pl.abandon(id)
	}
}

// abandon tells the enclave that nobody waits for id any more and aborts
// the fetch it cancelled for that: a lone leader's in-flight fetch is
// cancelled and its trusted entries freed — otherwise client-timeout storms
// against an unresponsive upstream would accumulate fetches past the
// PipelineDepth bound the async sizing relies on. Outside shutdown's
// closeAll, it is the only way the runtime cancels a fetch.
func (pl *pipelineRuntime) abandon(id uint64) {
	var toks tokenList
	out, err := pl.p.encl.ECall(context.Background(), "abandon", encodeID(id))
	if err != nil || toks.decode(out) != nil {
		return // enclave destroyed mid-teardown; nothing left to cancel
	}
	for _, tok := range toks {
		pl.p.conns.fetch.cancelFetch(tok)
	}
}

// wait parks the calling request goroutine on ch until its final outcome
// arrives — the crossing's own, or, when that one says the request parked,
// the one a "resume" carries out. Either way out the waiter leaves the
// rendezvous. A caller that gives up leaves it BEFORE it
// abandons the request: if the request has not parked yet that abandon
// finds nothing, and the Pending reply still on its way must find no
// waiter either, so that deliver abandons it again.
func (pl *pipelineRuntime) wait(ctx context.Context, id uint64, ch chan pendingOutcome) (reply envelopeReply, err error) {
	for err == nil {
		select {
		case out := <-ch:
			if out.final() {
				pl.unregister(id)
				return out.reply, out.err
			}
		case <-ctx.Done():
			err = fmt.Errorf("proxy: pipelined request: %w", ctx.Err())
		case <-pl.stop:
			err = errors.New("proxy: pipeline stopped")
		}
	}
	pl.unregister(id)
	pl.abandon(id)
	return reply, err
}

func (pl *pipelineRuntime) unregister(id uint64) {
	pl.mu.Lock()
	delete(pl.waiters, id)
	pl.mu.Unlock()
}

// run serves one query envelope (plain or secure) and keeps the node's
// request counters and latency histogram. Blocking, it is the "request"
// ecall; pipelined, it is admit, register, the request crossing (queued for
// the batcher when one runs), and a wait for the final outcome — which the
// crossing's own reply is, unless the request parked.
func (p *Proxy) run(ctx context.Context, req envelope) (reply envelopeReply, err error) {
	p.requests.Add(1)
	start := time.Now()
	defer func() {
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

	// An unbatched crossing hands its own reply to its own channel; a
	// queued one's comes from the batcher (dispatchBatch).
	id, ch := pl.register()
	req.ID = id
	pl.crossings.Add(1)
	if pl.submitQ == nil {
		reply, err = p.ecall(ctx, req)
		pl.crossings.Add(-1)
		ch <- pendingOutcome{reply, err}
	} else {
		select {
		case pl.submitQ <- batchItem{id: id, arg: req.encode(), queued: time.Now()}:
		case <-ctx.Done():
			pl.crossings.Add(-1)
			ch <- pendingOutcome{err: fmt.Errorf("proxy: batch submit: %w", ctx.Err())}
		case <-pl.stop:
			pl.crossings.Add(-1)
			ch <- pendingOutcome{err: errors.New("proxy: pipeline stopped")}
		}
	}
	return pl.wait(ctx, id, ch)
}

// batchItem is one registered request riding the group-commit batcher:
// its encoded envelope, and when it was queued.
type batchItem struct {
	id     uint64
	arg    []byte
	queued time.Time
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
func (pl *pipelineRuntime) collect(first batchItem) []batchItem {
	batch := append(make([]batchItem, 0, pl.batchMax), first)
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
// and delivers each entry's reply to its waiter. A failed batch ecall
// (enclave destroyed mid-flight) errors every entry — a queued caller is
// never left waiting.
func (pl *pipelineRuntime) dispatchBatch(batch []batchItem) {
	pl.bstats.record(len(batch))
	blobs := make([][]byte, len(batch))
	for i, it := range batch {
		blobs[i] = it.arg
	}
	frames, err := pl.batchECall("request-batch", blobs)
	for i, it := range batch {
		var item batchItemReply
		out := pendingOutcome{err: err}
		if err == nil {
			if uerr := item.decode(frames[i]); uerr != nil {
				out.err = fmt.Errorf("proxy: bad batch entry reply: %w", uerr)
			} else {
				out = outcomeOf(item.Reply, item.Err)
			}
		}
		// The submit stage measures the batcher hold: queue wait plus
		// group-commit window plus the shared stage-1 crossing.
		pl.p.trusted.stages.Since(obs.StageSubmit, it.queued)
		pl.deliver(it.id, out)
	}
	pl.crossings.Add(-int64(len(batch)))
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
