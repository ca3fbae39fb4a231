package proxy

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/obs"
)

// This file is the trusted half of the async engine stage: the pending
// table a request parks in, and the "resume" and "abandon" ecalls that
// act on it (doc.go has the stage table). While a fetch is in flight NO
// enclave thread is occupied, so request N+1's obfuscation/filtering
// overlaps request N's network wait — the
// switchless/async-call design the SGX literature uses to beat transition
// and TCS costs, applied to the paper's §6.3 bottleneck.
//
// Pending-table entries hold only bounded per-request state (the
// obfuscated query and routing bookkeeping) for the duration of one engine
// round trip; like single-flight results on the blocking stage they are
// transient working state, not retained data, so they are not charged to
// the EPC meter — the history, cache and index charges (the retained
// state) happen in the shared stages.

// pendingAttempt is one issued fetch of a parked request: its primary,
// or a failover after the one before it ended.
type pendingAttempt struct {
	p     *pendingReq
	u     *upstream
	token uint64
	// flight is the trusted coroutine driving this attempt's exchange
	// (tlsasync.go); its completions are socket I/O steps. Immutable.
	flight *tlsFlight
}

// pendingReq is one parked request: a leader (owns the fetch) or a
// coalesced follower (waits for its leader's results). Its id is the
// untrusted runtime's (envelope.ID).
type pendingReq struct {
	id      uint64
	kind    byte   // typePlain or typeSecure
	session string // typeSecure only
	key     string
	oq      core.ObfuscatedQuery
	path    string

	// live is the request's one attempt in flight (leader only): a request
	// never has two fetches out at once. Nil between a dead attempt and its
	// failover, and once the request has left the table.
	live    *pendingAttempt
	tried   map[*upstream]bool
	lastErr string

	// done flips exactly once, under the table lock, when the request
	// leaves the table: finalized, abandoned, or released — with errstr, its
	// crossing's reply — by a leader that never got airborne.
	done   bool
	errstr string

	waiters []*pendingReq // leader only
	leader  *pendingReq   // follower only

	// Leader only: launched flips (under the table lock, followed by a
	// broadcast on launch) once the primary submission has resolved —
	// either way; a failed one also releases the request and the
	// followers that attached meanwhile from the table (see park).
	launched bool
}

// pendingTable indexes parked requests by id, by coalescing key (leaders),
// and by fetch token. It lives in trusted memory.
type pendingTable struct {
	mu sync.Mutex
	// launch is signalled when a leader's primary submission resolves.
	launch    sync.Cond
	nextToken uint64
	byID      map[uint64]*pendingReq
	byKey     map[string]*pendingReq
	byToken   map[uint64]*pendingAttempt
}

func newPendingTable() *pendingTable {
	pt := &pendingTable{
		byID:    make(map[uint64]*pendingReq),
		byKey:   make(map[string]*pendingReq),
		byToken: make(map[uint64]*pendingAttempt),
	}
	pt.launch.L = &pt.mu
	return pt
}

// nextCandidate picks the next upstream a parked request may try: the
// registry's preference order minus already-tried upstreams, gated like
// the blocking walk. Caller holds the pending-table lock (tried map); the
// limiter/breaker have their own.
func (ts *trustedState) nextCandidate(p *pendingReq) *upstream {
	for _, u := range ts.registry.order() {
		if !p.tried[u] && ts.admit(u, &p.lastErr) {
			return u
		}
	}
	return nil
}

// reserveAttempt registers a fetch attempt under the table lock BEFORE the
// submission, so a completion can never arrive for an unknown token.
func (ts *trustedState) reserveAttempt(p *pendingReq, u *upstream) *pendingAttempt {
	pt := ts.pending
	pt.nextToken++
	att := &pendingAttempt{p: p, u: u, token: pt.nextToken, flight: ts.newTLSFlight(pt.nextToken)}
	p.live = att
	p.tried[u] = true
	pt.byToken[att.token] = att
	return att
}

// launched resolves leader p's primary submission. A failed one (errstr
// set) unwinds everything its reservation published — the id, the
// coalescing key — and fails the followers that attached in the meantime:
// each is released from the table with the leader's error, and its own
// crossing, woken here, replies with it.
func (pt *pendingTable) launched(p *pendingReq, errstr string) {
	pt.mu.Lock()
	p.launched = true
	if errstr != "" {
		p.done = true
		delete(pt.byID, p.id)
		if pt.byKey[p.key] == p {
			delete(pt.byKey, p.key)
		}
		for _, w := range p.waiters {
			w.done, w.errstr = true, errstr
			delete(pt.byID, w.id)
		}
		p.waiters = nil
	}
	pt.mu.Unlock()
	pt.launch.Broadcast()
}

// unreserve rolls a reserved attempt back after a failed submission.
func (pt *pendingTable) unreserve(att *pendingAttempt) {
	pt.mu.Lock()
	att.p.live = nil
	delete(pt.byToken, att.token)
	pt.mu.Unlock()
	att.u.reportCancelled()
}

// handleResume is the "resume" ecall: every completion the resume worker
// had ready re-enters in one transition (one, on an unbatched proxy).
// Each entry is resumed on its own — failover and coalesced-follower
// replies keep their per-request semantics — so only the EENTER pair is
// amortized, and the reply frames one resumeReply per entry.
func (ts *trustedState) handleResume(env enclave.Env, arg []byte) ([]byte, error) {
	blobs, err := decodeBatch(arg)
	if err != nil {
		return nil, err
	}
	outs := make([][]byte, len(blobs))
	for i, blob := range blobs {
		rr := ts.resumeOne(env, blob)
		outs[i] = rr.encode()
	}
	return encodeBatch(outs), nil
}

// resumeOne takes one step completion into the enclave: it routes by the
// frame's leading token and leaves the rest to the flight, which decodes
// the completion once and advances its exchange. A flight's terminal
// outcome lands in completeFetchLocked.
func (ts *trustedState) resumeOne(env enclave.Env, arg []byte) resumeReply {
	if len(arg) < 8 {
		// A garbled completion names no token: nothing to act on.
		return resumeReply{State: resumeOrphan}
	}
	token := binary.LittleEndian.Uint64(arg)
	pt := ts.pending
	pt.mu.Lock()
	att, ok := pt.byToken[token]
	pt.mu.Unlock()
	if !ok {
		// Unknown token: a late or already-cancelled completion. Echo it
		// as DoneToken so the flight's untrusted per-token state is dropped.
		return resumeReply{State: resumeOrphan, DoneToken: token}
	}
	return ts.resumeTLSFlight(env, att, arg)
}

// completeFetchLocked is a flight's terminal outcome taken into the
// pending table. It performs the upstream accounting the blocking walk
// does inline (breaker, served counters), fails over when the attempt
// died, and on a response settles the request and builds its final reply,
// readying any coalesced followers. Entered with the table lock HELD and
// the attempt already released (the request has nothing in flight, and is
// not done: every path that finishes a request releases its attempt
// first); the lock is released before returning.
func (ts *trustedState) completeFetchLocked(env enclave.Env, att *pendingAttempt, fr *fetchReply) resumeReply {
	pt := ts.pending
	p := att.p
	if fr.Cancelled {
		// The runtime cancelled the live attempt of an unfinished request
		// (closeAll during shutdown/crash racing live traffic; an abandon
		// would have released it). Fail over like a failure — but without
		// breaker accounting, since the upstream never misbehaved — so the
		// parked waiter gets a final reply instead of hanging until the
		// drain deadline.
		if p.lastErr == "" {
			p.lastErr = fmt.Sprintf("proxy: engine %s: fetch cancelled", att.u.host)
		}
		rr := ts.failOverLocked(env, pt, p)
		att.u.reportCancelled()
		return rr
	}
	if failMsg := fetchFailure(fr); failMsg != "" {
		// The attempt failed: fail over immediately, like the blocking
		// stage walking to the next upstream.
		p.lastErr = fmt.Sprintf("proxy: engine %s: %s", att.u.host, failMsg)
		rr := ts.failOverLocked(env, pt, p)
		att.u.reportFailure(time.Now(), ts.registry.threshold, ts.registry.cooldown)
		return rr
	}

	// The attempt reached the engine: the request is done, and a new
	// identical request no longer coalesces onto it.
	p.done = true
	pt.mu.Unlock()
	att.u.reportSuccess()
	att.u.served.Add(1)

	resumeStart := time.Now()
	results, err := ts.settle(env, p.oq, p.key, fr)

	pt.mu.Lock()
	rr := ts.finalizeLocked(pt, p, results, errString(err))
	ts.stages.Since(obs.StageResume, resumeStart)
	return rr
}

// failOverLocked advances a live request whose attempt just died: issue a
// fetch to the next candidate upstream, or — none left — finalize with
// the request's last error. Called with the table lock held; the lock is
// released before returning (submitFetch must not run under it).
func (ts *trustedState) failOverLocked(env enclave.Env, pt *pendingTable, p *pendingReq) resumeReply {
	next := ts.nextCandidate(p)
	if next == nil {
		return ts.finalizeLocked(pt, p, nil, p.lastErr)
	}
	att := ts.reserveAttempt(p, next)
	pt.mu.Unlock()
	if err := ts.submitFetch(env, p, att); err != nil {
		pt.unreserve(att)
		pt.mu.Lock()
		return ts.finalizeLocked(pt, p, nil, err.Error())
	}
	return resumeReply{State: resumePending, PendingID: p.id}
}

// fetchFailure classifies a completion as an upstream failure ("" means
// the upstream held up its end). 5xx and transport errors — an oversized
// or ambiguously framed response among them — count against the breaker
// on either engine stage.
func fetchFailure(fr *fetchReply) string {
	switch {
	case fr.Err != "":
		return fr.Err
	case fr.Status >= 500:
		return fmt.Sprintf("status %d", fr.Status)
	}
	return ""
}

// accountOutcome charges one finished exchange to its upstream's breaker
// and returns fetchFailure's verdict.
func (ts *trustedState) accountOutcome(u *upstream, fr *fetchReply) string {
	failMsg := fetchFailure(fr)
	if failMsg != "" {
		u.reportFailure(time.Now(), ts.registry.threshold, ts.registry.cooldown)
	} else {
		u.reportSuccess()
	}
	return failMsg
}

// errString is err's message, "" for nil: request errors cross the ecall
// seam and the pending table as strings.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// finalizeLocked completes a leader: it and its followers leave the table,
// and the resume reply carries the leader's final reply and each
// follower's own. Entered with the table lock held; the lock is released
// before any reply is built, so no seal runs under it.
func (ts *trustedState) finalizeLocked(pt *pendingTable, p *pendingReq, results []core.Result, errstr string) resumeReply {
	p.done = true
	followers := p.waiters
	p.waiters = nil
	for _, w := range followers {
		w.done = true
		delete(pt.byID, w.id)
	}
	delete(pt.byID, p.id)
	if pt.byKey[p.key] == p {
		delete(pt.byKey, p.key)
	}
	pt.mu.Unlock()

	rr := resumeReply{State: resumeDone, PendingID: p.id}
	reply, err := ts.finishReply(p.kind, p.session, results, errstr)
	rr.Reply, rr.Err = reply, errString(err)
	for _, w := range followers {
		reply, err := ts.finishReply(w.kind, w.session, results, errstr)
		rr.Followers = append(rr.Followers, followerReply{ID: w.id, Reply: reply, Err: errString(err)})
	}
	return rr
}

// handleAbandon is the "abandon" ecall: a parked request's caller has gone
// (context cancelled), so its trusted state must not outlive it. A lone
// leader's live fetch is cancelled and its table entries freed — without
// this, client-timeout storms against a hanging upstream accumulate
// in-flight fetches past the PipelineDepth bound the async sizing relies
// on, and pendingTable grows without bound. A leader with coalesced
// followers keeps its flight alive (the followers still want the results;
// the runtime drops the reply nobody waits for), and an abandoning follower
// is unhooked from its leader. An id nothing is parked under is not an
// error: its request has finalized — or has not finished parking (its
// flight's submission is unresolved), in which case the Pending reply it
// is about to send finds no waiter and comes back here.
func (ts *trustedState) handleAbandon(_ enclave.Env, arg []byte) ([]byte, error) {
	id, err := decodeID(arg)
	if err != nil {
		return nil, fmt.Errorf("proxy: bad abandon arg: %w", err)
	}
	var toks tokenList
	pt := ts.pending
	pt.mu.Lock()
	defer pt.mu.Unlock()
	p, ok := pt.byID[id]
	switch {
	case !ok:
	case p.leader != nil:
		if l := p.leader; l.launched {
			// errstr is for a crossing of its own that has yet to look.
			p.done, p.errstr = true, "proxy: request abandoned"
			delete(pt.byID, id)
			l.waiters = slices.DeleteFunc(l.waiters, func(w *pendingReq) bool { return w == p })
		}
	case p.launched && len(p.waiters) == 0:
		p.done = true
		delete(pt.byID, id)
		if pt.byKey[p.key] == p {
			delete(pt.byKey, p.key)
		}
		if a := p.live; a != nil {
			p.live = nil
			delete(pt.byToken, a.token)
			toks = append(toks, a.token)
			a.u.reportCancelled()
			a.flight.abort()
		}
	}
	return toks.encode(), nil
}
