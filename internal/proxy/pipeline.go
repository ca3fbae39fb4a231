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
// table a request parks in, and the "resume", "hedge" and "abandon"
// ecalls that act on it (doc.go has the stage table). While a
// fetch is in flight NO enclave thread is occupied, so request N+1's
// obfuscation/filtering overlaps request N's network wait — the
// switchless/async-call design the SGX literature uses to beat transition
// and TCS costs, applied to the paper's §6.3 bottleneck.
//
// Pending-table entries hold only bounded per-request state (the
// obfuscated query and routing bookkeeping) for the duration of one engine
// round trip; like single-flight results on the blocking stage they are
// transient working state, not retained data, so they are not charged to
// the EPC meter — the history, cache and index charges (the retained
// state) happen in the shared stages.

// pendingAttempt is one issued fetch of a parked request.
type pendingAttempt struct {
	p     *pendingReq
	u     *upstream
	token uint64
	hedge bool // issued by the hedge ecall (vs primary or failover)
	done  bool
	// flight is the trusted coroutine driving this attempt's exchange
	// (tlsasync.go); its completions are socket I/O steps. Immutable.
	flight *tlsFlight
}

// pendingReq is one parked request: a leader (owns the fetch attempts) or
// a coalesced follower (waits for its leader's results). Its id is the
// untrusted runtime's (envelope.ID).
type pendingReq struct {
	id      uint64
	kind    byte   // typePlain or typeSecure
	session string // typeSecure only
	key     string
	oq      core.ObfuscatedQuery
	path    string

	attempts []*pendingAttempt
	tried    map[*upstream]bool
	hedges   int
	lastErr  string

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
func (ts *trustedState) reserveAttempt(p *pendingReq, u *upstream, hedge bool) *pendingAttempt {
	pt := ts.pending
	pt.nextToken++
	att := &pendingAttempt{p: p, u: u, token: pt.nextToken, hedge: hedge, flight: ts.newTLSFlight(pt.nextToken)}
	p.attempts = append(p.attempts, att)
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
	att.done = true
	delete(pt.byToken, att.token)
	pt.mu.Unlock()
	att.u.reportCancelled()
}

// handleResume is the "resume" ecall: every completion the resume worker
// had ready re-enters in one transition (one, on an unbatched proxy).
// Each entry is resumed on its own — failover, hedge-loser accounting and
// coalesced-follower replies keep their per-request semantics — so only
// the EENTER pair is amortized, and the reply frames one resumeReply per
// entry.
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
// does inline (breaker, served counters), arbitrates hedges (first success
// wins), fails over when every outstanding attempt is gone, and on the
// winning response settles the request and builds its final reply,
// readying any coalesced followers.
// Entered with the table lock HELD, att.done already set and its token
// removed; the lock is released before returning.
func (ts *trustedState) completeFetchLocked(env enclave.Env, att *pendingAttempt, fr *fetchReply) resumeReply {
	pt := ts.pending
	p := att.p
	if fr.Cancelled {
		if !p.done && outstanding(p) == 0 {
			// Not a hedge loser: the runtime cancelled the last live
			// attempt of an unfinished request (closeAll during
			// shutdown/crash racing live traffic). Fail over like a
			// failure — but without breaker accounting, since the
			// upstream never misbehaved — so the parked waiter gets a
			// final reply instead of hanging until the drain deadline.
			if p.lastErr == "" {
				p.lastErr = fmt.Sprintf("proxy: engine %s: fetch cancelled", att.u.host)
			}
			rr := ts.failOverLocked(env, pt, p)
			att.u.reportCancelled()
			return rr
		}
		wasDone := p.done
		pt.mu.Unlock()
		att.u.reportCancelled()
		if wasDone {
			// Only a loser cancelled after the winner landed is a hedge
			// cancellation; shutdown cancelling attempts of a still-live
			// request (outstanding > 0) is not.
			ts.hedgeCancelled.Add(1)
		}
		return resumeReply{State: resumeOrphan}
	}
	if p.done {
		// Late loser that ran to completion before the runtime's cancel
		// reached it: account the outcome (it is a genuine exchange
		// result), nothing else to do.
		pt.mu.Unlock()
		ts.accountOutcome(att.u, fr)
		return resumeReply{State: resumeOrphan}
	}

	if failMsg := fetchFailure(fr); failMsg != "" {
		p.lastErr = fmt.Sprintf("proxy: engine %s: %s", att.u.host, failMsg)
		if outstanding(p) > 0 {
			// A hedge (or the primary) is still in flight; let it race on.
			pt.mu.Unlock()
			att.u.reportFailure(time.Now(), ts.registry.threshold, ts.registry.cooldown)
			return resumeReply{State: resumePending, PendingID: p.id}
		}
		// Last attempt standing failed: fail over immediately, like the
		// blocking stage walking to the next upstream.
		rr := ts.failOverLocked(env, pt, p)
		att.u.reportFailure(time.Now(), ts.registry.threshold, ts.registry.cooldown)
		return rr
	}

	// The attempt reached the engine. Claim the win under the lock so a
	// racing second success becomes a late loser above.
	p.done = true
	cancelToks := cancelTokens(p)
	pt.mu.Unlock()
	att.u.reportSuccess()
	att.u.served.Add(1)
	if att.hedge {
		ts.hedgeWins.Add(1)
	}

	resumeStart := time.Now()
	results, err := ts.settle(env, p.oq, p.key, fr)

	pt.mu.Lock()
	rr := ts.finalizeLocked(pt, p, results, errString(err), cancelToks)
	ts.stages.Since(obs.StageResume, resumeStart)
	return rr
}

// failOverLocked advances a live request whose last outstanding attempt
// just died: issue a fetch to the next candidate upstream, or — none left
// — finalize with the request's last error. Called with the table lock
// held; the lock is released before returning (submitFetch must not run
// under it).
func (ts *trustedState) failOverLocked(env enclave.Env, pt *pendingTable, p *pendingReq) resumeReply {
	next := ts.nextCandidate(p)
	if next == nil {
		return ts.finalizeLocked(pt, p, nil, p.lastErr, nil)
	}
	att := ts.reserveAttempt(p, next, false)
	pt.mu.Unlock()
	if err := ts.submitFetch(env, p, att); err != nil {
		pt.unreserve(att)
		pt.mu.Lock()
		return ts.finalizeLocked(pt, p, nil, err.Error(), nil)
	}
	return resumeReply{State: resumePending, PendingID: p.id}
}

// fetchFailure classifies a completion as an upstream failure ("" means
// the upstream held up its end). 5xx and transport errors count against
// the breaker on either engine stage; an oversized body is the untrusted
// runtime violating the response cap and counts as a failed exchange.
func fetchFailure(fr *fetchReply) string {
	switch {
	case fr.Err != "":
		return fr.Err
	case fr.Status >= 500:
		return fmt.Sprintf("status %d", fr.Status)
	case len(fr.Body) > maxEngineResponse:
		return fmt.Sprintf("response %d bytes exceeds cap", len(fr.Body))
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

// outstanding counts a pending request's fetches still in flight.
// Caller holds the table lock.
func outstanding(p *pendingReq) int {
	n := 0
	for _, a := range p.attempts {
		if !a.done {
			n++
		}
	}
	return n
}

// cancelTokens collects the tokens of still-outstanding attempts so the
// runtime can abort the losers, aborting their flights first —
// trusted-side, before the CancelTokens ever reach the runtime — so a
// loser's coroutine is already unwinding when its socket dies.
// Caller holds the table lock.
func cancelTokens(p *pendingReq) []uint64 {
	var toks []uint64
	for _, a := range p.attempts {
		if !a.done {
			toks = append(toks, a.token)
			a.flight.abort()
		}
	}
	return toks
}

// finalizeLocked completes a leader: it and its followers leave the table,
// and the resume reply carries the leader's final reply and each
// follower's own. Entered with the table lock held; the lock is released
// before any reply is built, so no seal runs under it.
func (ts *trustedState) finalizeLocked(pt *pendingTable, p *pendingReq, results []core.Result, errstr string, cancelToks []uint64) resumeReply {
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

	rr := resumeReply{State: resumeDone, PendingID: p.id, CancelTokens: cancelToks}
	reply, err := ts.finishReply(p.kind, p.session, results, errstr)
	rr.Reply, rr.Err = reply, errString(err)
	for _, w := range followers {
		reply, err := ts.finishReply(w.kind, w.session, results, errstr)
		rr.Followers = append(rr.Followers, followerReply{ID: w.id, Reply: reply, Err: errString(err)})
	}
	return rr
}

// handleHedge is the "hedge" ecall: the runtime's hedge timer fired for a
// parked request. The enclave decides — candidate health, HedgeMax, and
// flight state are trusted concerns; only the TIMING is untrusted (the
// host observes request timing anyway). The reply is a parked
// envelopeReply: Pending set when a hedge went out, to Upstream, and
// CanHedge when another is still in budget.
func (ts *trustedState) handleHedge(env enclave.Env, arg []byte) ([]byte, error) {
	id, err := decodeID(arg)
	if err != nil {
		return nil, fmt.Errorf("proxy: bad hedge arg: %w", err)
	}
	var none envelopeReply
	pt := ts.pending
	pt.mu.Lock()
	p, ok := pt.byID[id]
	if !ok || p.done || p.leader != nil || !p.launched || p.hedges >= ts.hedgeMax {
		pt.mu.Unlock()
		return none.encode(), nil
	}
	u := ts.nextCandidate(p)
	if u == nil {
		pt.mu.Unlock()
		return none.encode(), nil
	}
	p.hedges++
	more := p.hedges < ts.hedgeMax
	att := ts.reserveAttempt(p, u, true)
	pt.mu.Unlock()
	ts.hedgeAttempts.Add(1)
	if err := ts.submitFetch(env, p, att); err != nil {
		pt.unreserve(att)
		pt.mu.Lock()
		p.hedges--
		pt.mu.Unlock()
		return none.encode(), nil
	}
	ts.events.Append(obs.Event{Type: obs.EvHedge, Shard: ts.shard, Upstream: u.host})
	hedged := envelopeReply{Pending: id, Upstream: u.host, CanHedge: more}
	return hedged.encode(), nil
}

// handleAbandon is the "abandon" ecall: a parked request's caller has gone
// (context cancelled), so its trusted state must not outlive it. A lone
// leader's outstanding fetches are cancelled and its table entries freed —
// without this, client-timeout storms against a hanging upstream
// accumulate in-flight fetches past the PipelineDepth×(1+HedgeMax) bound
// the async sizing relies on, and pendingTable grows without bound. A
// leader with coalesced followers keeps its flight alive (the followers
// still want the results; the runtime drops the reply nobody waits for),
// and an abandoning follower is unhooked from its leader. An id nothing is
// parked under is not an error: its request has finalized — or has not
// finished parking (its flight's submission is unresolved), in which case
// the Pending reply it is about to send finds no waiter and comes back here.
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
		for _, a := range p.attempts {
			if !a.done {
				a.done = true
				delete(pt.byToken, a.token)
				toks = append(toks, a.token)
				a.u.reportCancelled()
				a.flight.abort()
			}
		}
	}
	return toks.encode(), nil
}
