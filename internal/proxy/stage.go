package proxy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/obs"
)

// This file is the trusted request stage — the paper's Figure 2 pipeline,
// written once and run by every configuration. One to N requests move
// through open → obfuscate → probe → engine → settle → reply; the
// configurations differ only in the engine stage and in N (doc.go has
// the table).

// entry is one request's staging state. An entry is settled (out/err
// final) as soon as its outcome is known — a decode failure, a cache hit,
// a parked reply — and every later stage skips settled entries.
type entry struct {
	req   envelope
	query string
	count int
	key   string
	oq    core.ObfuscatedQuery
	// Async engine stage: the parked request, and for a flight leader its
	// reserved primary attempt (nil for a coalesced follower, and cleared
	// again when the submission fails).
	p   *pendingReq
	att *pendingAttempt

	out     []byte
	err     error
	settled bool
}

func (e *entry) settle(out []byte, err error) {
	e.out, e.err, e.settled = out, err, true
}

func (e *entry) fail(err error) { e.settle(nil, err) }

func (e *entry) decode(blob []byte) {
	if err := e.req.decode(blob); err != nil {
		e.fail(fmt.Errorf("proxy: bad envelope: %w", err))
	}
}

// handleRequest is the body of the "request" ecall: the single entry point
// for sensitive data, per the paper's minimal enclave interface. It
// carries handshakes and a batch of one query.
func (ts *trustedState) handleRequest(env enclave.Env, arg []byte) ([]byte, error) {
	var es [1]entry
	e := &es[0]
	e.decode(arg)
	if !e.settled && e.req.Type == typeHandshake {
		return ts.handleHandshake(env, e.req.Offer)
	}
	ts.serve(env, es[:])
	return e.out, e.err
}

// handleRequestBatch is the "request-batch" ecall: several admitted
// requests cross the boundary in one transition. Each entry ends with
// exactly the reply (or error) it would have gotten alone, framed
// per-entry by batchItemReply, while the stages pay their fixed costs —
// the obfuscator lock, the EPC settlement, the pending-table critical
// section — once. Handshakes never batch (the untrusted batcher routes
// them to "request"; one arriving here is a per-entry error, not a batch
// failure).
func (ts *trustedState) handleRequestBatch(env enclave.Env, arg []byte) ([]byte, error) {
	blobs, err := decodeBatch(arg)
	if err != nil {
		return nil, err
	}
	es := make([]entry, len(blobs))
	for i, blob := range blobs {
		es[i].decode(blob)
	}
	ts.serve(env, es)
	outs := make([][]byte, len(es))
	for i := range es {
		item := batchItemReply{Reply: es[i].out, Err: errString(es[i].err)}
		outs[i] = item.encode()
	}
	return encodeBatch(outs), nil
}

// serve runs decoded entries through the stages. On return every entry is
// settled: with its final reply, or — on the async engine stage — with the
// Pending reply the untrusted runtime parks on.
func (ts *trustedState) serve(env enclave.Env, es []entry) {
	for i := range es {
		ts.open(&es[i])
	}
	ts.obfuscate(env, es)
	for i := range es {
		ts.probe(env, &es[i])
	}
	if ts.pending != nil {
		ts.park(env, es)
		return
	}
	for i := range es {
		ts.fetch(env, &es[i])
	}
}

// open turns a decoded envelope into a query and a result count: a plain
// (curl/wget) query as-is, a secure one by opening its sealed record on
// the session's channel. Failures here are ecall errors — there is no
// usable channel to seal them under. Records from one session arrive in
// submission order, so channel sequencing is preserved across a batch.
func (ts *trustedState) open(e *entry) {
	if e.settled {
		return
	}
	switch e.req.Type {
	case typePlain:
		if strings.TrimSpace(e.req.Query) == "" {
			e.fail(fmt.Errorf("proxy: empty query"))
			return
		}
		e.query, e.count = e.req.Query, ts.perList
	case typeSecure:
		sess, err := ts.session(e.req.Session)
		if err != nil {
			e.fail(err)
			return
		}
		plaintext, err := sess.channel.Open(e.req.Record)
		if err != nil {
			e.fail(fmt.Errorf("proxy: open record: %w", err))
			return
		}
		if e.query, e.count, err = core.ParseSecureRequest(plaintext); err != nil {
			e.fail(fmt.Errorf("proxy: bad secure request: %w", err))
			return
		}
		if e.count <= 0 || e.count > 100 {
			e.count = ts.perList
		}
	default:
		e.fail(fmt.Errorf("proxy: request type %d is not a query", e.req.Type))
	}
}

// session looks an established secure channel up by id.
func (ts *trustedState) session(id string) (*sessionState, error) {
	ts.mu.Lock()
	sess, ok := ts.sessions[id]
	ts.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("proxy: unknown session %q", id)
	}
	return sess, nil
}

// obfuscate is Algorithm 1 for every live entry plus the EPC settlement
// of the history growth — the only place either happens. The per-query
// upper bound is charged BEFORE the window is touched and the difference
// refunded after (the real delta is at most the bound: evictions only
// subtract), so a charge the EPC refuses records nothing: the entries
// fail with the history untouched and heap == history + cache + index
// still true. More than one live entry is one pass under one obfuscator
// lock, with the sequential semantics of obfuscating them in order.
func (ts *trustedState) obfuscate(env enclave.Env, es []entry) {
	start := time.Now()
	var one [1]*entry // a batch of one must not allocate its live list
	live := one[:0]
	var bound int64
	for i := range es {
		if !es[i].settled {
			live = append(live, &es[i])
			bound += core.QueryCost(es[i].query)
		}
	}
	if len(live) == 0 {
		return
	}
	if err := env.Alloc(bound); err != nil {
		for _, e := range live {
			ts.reply(e, nil, fmt.Sprintf("proxy: history alloc: %v", err))
		}
		return
	}
	var delta int64
	if len(live) == 1 {
		live[0].oq, delta = ts.obfuscator.Obfuscate(live[0].query)
	} else {
		queries := make([]string, len(live))
		for i, e := range live {
			queries[i] = e.query
		}
		var oqs []core.ObfuscatedQuery
		oqs, delta = ts.obfuscator.ObfuscateBatch(queries)
		for i, e := range live {
			e.oq = oqs[i]
		}
	}
	env.Free(bound - delta)
	// One observation per crossing: for a batch the amortized cost IS the
	// quantity of interest, and per-entry splits of a shared pass would be
	// arbitrary.
	ts.stages.Since(obs.StageObfuscate, start)
}

// probe answers what can be answered inside the enclave. Obfuscation ran
// first, so the history (the fake-query source) grows exactly as it would
// without a cache. In echo mode — the paper's §6.3 capacity configuration —
// every request is answered here, empty, so the proxy's own saturation
// point is visible. Otherwise a fresh cache entry for the ORIGINAL query
// short-circuits the engine round trip, and after the exact-key cache
// misses, a TF-IDF probe of the answer index can still serve a rephrased
// or near-repeat query; below its confidence floor the entry falls
// through to the engine stage.
func (ts *trustedState) probe(env enclave.Env, e *entry) {
	if e.settled {
		return
	}
	if ts.echoMode {
		ts.reply(e, []core.Result{}, "")
		return
	}
	start := time.Now()
	e.key = cacheKey(e.query, e.count)
	results, hit := ts.lookup(env, e)
	ts.stages.Since(obs.StageProbe, start)
	if hit {
		ts.reply(e, results, "")
	}
}

func (ts *trustedState) lookup(env enclave.Env, e *entry) ([]core.Result, bool) {
	if ts.cache != nil {
		if cached, ok := ts.cache.Get(e.key, time.Now(), env.Free); ok {
			ts.cacheHits.Hit()
			return cached, true
		}
		ts.cacheHits.Miss()
	}
	if ts.index != nil {
		if hits, ok := ts.index.Query(e.query, e.count, time.Now(), env.Free); ok {
			ts.indexHits.Hit()
			return hits, true
		}
		ts.indexHits.Miss()
	}
	return nil, false
}

// cacheKey identifies one cacheable response: the original query plus the
// requested result count (different counts produce different lists).
func cacheKey(query string, count int) string {
	return query + "\x1f" + strconv.Itoa(count)
}

// enginePath is the request line's target for an obfuscated query.
func enginePath(oq core.ObfuscatedQuery, count int) string {
	return "/search?q=" + queryEscape(oq.Query()) + "&count=" + strconv.Itoa(count)
}

// admit gates one upstream for one fetch attempt: the rate limiter, then
// the circuit breaker. The limiter goes first — a limited upstream must
// not consume the breaker's half-open probe slot. A refusal worth
// reporting is left in lastErr.
func (ts *trustedState) admit(u *upstream, lastErr *string) bool {
	if u.limiter != nil && !u.limiter.allow(time.Now()) {
		u.rateLimited.Add(1)
		*lastErr = fmt.Sprintf("proxy: engine %s rate-limited", u.host)
		return false
	}
	return u.acquire(time.Now(), ts.registry.threshold)
}

// errNoUpstream is the request error when every upstream is cooling down.
const errNoUpstream = "proxy: no engine upstream available (all cooling down)"

// fetch is the blocking engine stage: the entry's engine exchange runs to
// completion inside this ecall, each of its steps a handful of the paper's
// socket ocalls (ocallStepper), holding the TCS throughout. Concurrent
// identical original queries are single-flighted: the first becomes the
// leader and performs the round trip; the rest wait and share its filtered
// result (and the cache, when enabled, is charged to the EPC exactly once,
// by the leader).
func (ts *trustedState) fetch(env enclave.Env, e *entry) {
	if e.settled {
		return
	}
	if ts.flights == nil {
		results, err := ts.roundTripAndSettle(env, e)
		ts.reply(e, results, errString(err))
		return
	}
	results, shared, err := ts.flights.Do(e.key, func() ([]core.Result, error) {
		return ts.roundTripAndSettle(env, e)
	})
	if err == nil && shared {
		// Another request's flight answered this one: no engine round
		// trip, no second cache charge. Copy — the leader's slice is
		// shared across every waiter.
		ts.coalesce.Hit()
		results = append([]core.Result(nil), results...)
	} else if err == nil {
		ts.coalesce.Miss()
	}
	ts.reply(e, results, errString(err))
}

// roundTripAndSettle spreads one obfuscated query across the upstream set
// (CYCLOSA-style fan-out) from inside the enclave. It walks the registry's
// weighted preference order: a rate-limited or cooling-down upstream is
// skipped for free, a failed dial or exchange — or an engine error status
// (5xx) — trips that upstream's breaker and fails over to the next, and
// only when every upstream is exhausted does the request fail. The first
// upstream that holds up its end has its response settled.
func (ts *trustedState) roundTripAndSettle(env enclave.Env, e *entry) ([]core.Result, error) {
	path := enginePath(e.oq, e.count)
	st := ocallStepper{env}
	var lastErr string
	for _, u := range ts.registry.order() {
		if !ts.admit(u, &lastErr) {
			continue
		}
		out := ts.exchange(st, u, path)
		st.close(u.release(&out, time.Now()))
		if failMsg := ts.accountOutcome(u, &out.reply); failMsg != "" {
			lastErr = fmt.Sprintf("proxy: engine %s: %s", u.host, failMsg)
			continue
		}
		u.served.Add(1)
		return ts.settle(env, e.oq, e.key, &out.reply)
	}
	if lastErr == "" {
		lastErr = errNoUpstream
	}
	return nil, errors.New(lastErr)
}

// park is the async engine stage: instead of holding the TCS for the
// round trip, each live entry's fetch is submitted to the switchless ring
// and the request parks in the pending table; the entry settles with a
// Pending reply and the "resume" ecall finishes the request later.
//
// A leader's coalescing key is published in the same critical section
// that reserves its attempt, so an identical query arriving at any later
// instant — a later entry of this batch, or a concurrent crossing —
// attaches as a follower instead of leading a second flight. The price is
// the window between reservation and submission: a follower can attach to
// a leader whose submission then fails, and followers' replies ride the
// "resume" reply a failed submission never produces. So a follower does
// not leave this crossing before its leader's submission has resolved
// (launched): it waits on the table's condition — microseconds, the
// leader is between its reservation and a ring push on another TCS — and
// if the leader never got airborne it takes the leader's error as its own
// reply, here, with no parked state left behind.
func (ts *trustedState) park(env enclave.Env, es []entry) {
	pt := ts.pending
	coalesce := ts.flights != nil // same switch as the blocking stage

	// One pending-table critical section builds every entry's flight —
	// follower attach, or leader create + candidate + attempt reservation
	// (registered BEFORE submission, the table's invariant) + key.
	pt.mu.Lock()
	for i := range es {
		e := &es[i]
		if e.settled {
			continue
		}
		if _, parked := pt.byID[e.req.ID]; parked || e.req.ID == 0 {
			// The runtime names its requests; a name nothing can be parked
			// under is its own error, and the entry already there stays.
			e.fail(fmt.Errorf("proxy: request id %d is zero or already parked", e.req.ID))
			continue
		}
		e.p = &pendingReq{id: e.req.ID, kind: e.req.Type, session: e.req.Session, key: e.key}
		if coalesce {
			if leader, ok := pt.byKey[e.key]; ok && !leader.done {
				// Follower: ride the leader's flight. No fetch, no hedging.
				e.p.leader = leader
				leader.waiters = append(leader.waiters, e.p)
				pt.byID[e.p.id] = e.p
				continue
			}
		}
		e.p.oq = e.oq
		e.p.path = enginePath(e.oq, e.count)
		e.p.tried = make(map[*upstream]bool)
		if u := ts.nextCandidate(e.p); u != nil {
			e.att = ts.reserveAttempt(e.p, u, false)
			pt.byID[e.p.id] = e.p
			if coalesce {
				pt.byKey[e.key] = e.p
			}
		}
	}
	pt.mu.Unlock()

	// Burst every leader's primary fetch into the async ring. OCallAsync
	// re-checks the enclave's destroy signal around each ring send, so each
	// submission individually observes a destroy: a destroy mid-burst
	// deterministically fails this entry and every remaining one with
	// ErrDestroyed instead of leaving them parked with no fetch in flight
	// (no resume would ever finalize them). Never under the table lock: a
	// full ring blocks, and the resume path needs the lock to drain it.
	for i := range es {
		e := &es[i]
		if e.settled {
			continue
		}
		var host string
		switch {
		case e.p.leader != nil:
			ts.coalesce.Hit()
			pt.mu.Lock()
			for !e.p.leader.launched {
				pt.launch.Wait()
			}
			errstr := e.p.errstr
			pt.mu.Unlock()
			if errstr != "" {
				// Released with an error: the leader never got airborne, or
				// this request's own caller abandoned it meanwhile. (A flight
				// that has finalized by now left none: the follower's reply
				// is on the leader's "resume", and this one stays Pending.)
				ts.reply(e, nil, errstr)
				continue
			}
		case e.att == nil:
			// No upstream would take it; the request was never indexed.
			if e.p.lastErr == "" {
				e.p.lastErr = errNoUpstream
			}
			ts.reply(e, nil, e.p.lastErr)
			continue
		default:
			if coalesce {
				ts.coalesce.Miss()
			}
			if err := ts.submitFetch(env, e.p, e.att); err != nil {
				pt.unreserve(e.att)
				pt.launched(e.p, err.Error())
				ts.reply(e, nil, err.Error())
				continue
			}
			pt.launched(e.p, "")
			host = e.att.u.host
		}
		// Followers echo only their id; leaders also name their upstream so
		// the runtime can derive the hedge delay per request.
		parked := envelopeReply{
			Pending:  e.p.id,
			Upstream: host,
			CanHedge: host != "" && ts.hedgeMax > 0 && len(ts.registry.ups) > 1,
		}
		e.settle(parked.encode(), nil)
	}
}

// settle turns the response of an upstream that held up its end into the
// request's answer: Algorithm 2 filtering (which reduces the merged list
// to the ORIGINAL query's results, so sharing across coalesced waiters is
// sound), redirect stripping, and the cache and index stores. It runs in
// the "request" ecall on the blocking engine stage and in the winner's
// "resume" ecall on the async one — already-measured crossings either
// way, so the stores add no boundary traffic of their own. A non-200
// status from a healthy upstream is the request's final error (no
// failover: the upstream itself is fine). The decoded results are
// substrings of one copy of the engine body; that is free for a reply,
// which is encoded and dropped, but a result the cache or the index keeps
// would pin the whole body in EPC against a charge for its own bytes — so
// with either store on, the kept results are cloned first.
func (ts *trustedState) settle(env enclave.Env, oq core.ObfuscatedQuery, key string, fr *fetchReply) ([]core.Result, error) {
	if fr.Status != 200 {
		return nil, fmt.Errorf("proxy: engine status %d", fr.Status)
	}
	raw, err := core.ParseResultsJSON(fr.Body, 0)
	if err != nil {
		return nil, fmt.Errorf("proxy: engine response: %w", err)
	}
	filterStart := time.Now()
	results := core.FilterResults(oq.Original(), oq.Fakes(), raw)
	retained := ts.cache != nil || ts.index != nil
	for i := range results {
		r := &results[i]
		r.URL = core.StripRedirects(r.URL)
		if retained {
			r.URL, r.Title, r.Snippet = strings.Clone(r.URL), strings.Clone(r.Title), strings.Clone(r.Snippet)
		}
	}
	ts.stages.Since(obs.StageFilter, filterStart)
	if ts.cache != nil {
		// The cache mirrors its bytes onto the EPC under its own lock, and
		// is charged exactly once per flight (followers only copy). When
		// the charge fails (EPC exhausted) the entry is simply not stored
		// and the query still succeeds.
		ts.cache.Put(key, results, time.Now(), env.Alloc, env.Free)
	}
	if ts.index != nil {
		// Forward-private insert: arena-quantized charges, so the host's
		// EPC trace learns nothing about the indexed terms it didn't learn
		// from the fetch itself.
		ts.index.Insert(results, time.Now(), env.Alloc, env.Free)
	}
	return results, nil
}

// reply settles e with its final reply.
func (ts *trustedState) reply(e *entry, results []core.Result, errstr string) {
	e.settle(ts.finishReply(e.req.Type, e.req.Session, results, errstr))
}

// finishReply builds the final encoded reply for one request. A plain
// query's failure is the ecall's error; a secure query's is folded into
// the sealed reply (core.AppendSecureReply), so only the client reads it.
// The session is looked up at seal time: a session evicted while its
// request was in the engine stage fails here (the channel died with its
// table slot).
func (ts *trustedState) finishReply(kind byte, session string, results []core.Result, errstr string) ([]byte, error) {
	var reply envelopeReply
	switch kind {
	case typePlain:
		if errstr != "" {
			return nil, errors.New(errstr)
		}
		reply.Results = results
	case typeSecure:
		sess, err := ts.session(session)
		if err != nil {
			return nil, err
		}
		if reply.Record, err = sess.channel.Seal(core.AppendSecureReply(nil, results, errstr)); err != nil {
			return nil, fmt.Errorf("proxy: seal response: %w", err)
		}
	default:
		return nil, fmt.Errorf("proxy: unknown pending kind %d", kind)
	}
	return reply.encode(), nil
}
