package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/client"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/securechannel"
)

// Tests for the one rendezvous between the untrusted runtime and the
// pending table: ids minted before the crossing, one waiter map, follower
// replies riding "resume".

// waitRendezvousEmpty polls, to a bounded deadline, until no request
// crossing is out, nothing waits in the untrusted rendezvous and nothing is
// parked in the pending table. Crossings come first: a batched request
// whose caller gave up still crosses, and parks only after it has charged
// the EPC for its query.
func waitRendezvousEmpty(t *testing.T, p *Proxy) {
	t.Helper()
	pl, pt := p.pipeline, p.trusted.pending
	deadline := time.Now().Add(2 * time.Second)
	for {
		crossings := pl.crossings.Load()
		pl.mu.Lock()
		waiters := len(pl.waiters)
		pl.mu.Unlock()
		pt.mu.Lock()
		ids, keys, tokens := len(pt.byID), len(pt.byKey), len(pt.byToken)
		pt.mu.Unlock()
		if crossings == 0 && waiters+ids+keys+tokens == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous never emptied: crossings=%d waiters=%d byID=%d byKey=%d byToken=%d", crossings, waiters, ids, keys, tokens)
		}
		time.Sleep(time.Millisecond)
	}
}

// newGatedEngine starts a loopback engine that holds every request inside
// its handler until open is called (idempotent; also run at cleanup).
func newGatedEngine(t *testing.T) (srvAddr string, trips func() int, open func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	eng, srv := newHookedEngine(t, func() time.Duration { <-gate; return 0 })
	t.Cleanup(open)
	return srv.Addr(), func() int { return len(eng.QueryLog()) }, open
}

// sealQuery seals one secure request for query on channel (t.Error, not
// Fatal: callers run on their own goroutines).
func sealQuery(t *testing.T, channel *securechannel.Channel, query string) []byte {
	t.Helper()
	pt, err := json.Marshal(secureRequest{Query: query})
	if err == nil {
		pt, err = channel.Seal(pt)
	}
	if err != nil {
		t.Error(err)
	}
	return pt
}

// pairedSession installs a session named id in ts's table, as a handshake
// would, and returns the client's end of its channel: hand-made crossings
// on a trustedState with no enclave around it.
func pairedSession(t *testing.T, ts *trustedState, id string) *securechannel.Channel {
	t.Helper()
	client, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	server, err := securechannel.NewHandshake(securechannel.RoleServer)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := client.Complete(server.Offer())
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := server.Complete(client.Offer())
	if err != nil {
		t.Fatal(err)
	}
	if ts.sessions == nil {
		ts.sessions = make(map[string]*sessionState)
	}
	ts.sessions[id] = &sessionState{channel: theirs}
	return mine
}

// openFinal opens a final reply frame on channel: its results and its
// sealed error.
func openFinal(t *testing.T, channel *securechannel.Channel, frame []byte) ([]core.Result, string) {
	t.Helper()
	var reply envelopeReply
	if err := reply.decode(frame); err != nil || reply.Pending != 0 {
		t.Fatalf("final reply %+v, %v: want a sealed record", reply, err)
	}
	pt, err := channel.Open(reply.Record)
	if err != nil {
		t.Fatalf("final reply does not open on its channel: %v", err)
	}
	var resp secureResponse
	if err := json.Unmarshal(pt, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results, resp.Err
}

// A final outcome can overtake its own crossing's reply — the fetch is
// submitted inside the crossing, so a dead upstream's refused dial comes
// back through "resume" while the crossing is still returning. The id was
// registered before the crossing, so the outcome finds its waiter: the
// caller gets the sealed engine error (not a timeout), the late Pending reply is
// answered with a no-op abandon, and nothing is left behind. The crossing
// is made by hand so the order is forced, not raced.
func TestOutcomeBeforeCrossingReturnsIsDelivered(t *testing.T) {
	dead := reservePort(t)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: dead}}, AsyncOcalls: true, PipelineDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	pl := p.pipeline
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	id, ch := pl.register()
	parked, err := p.ecall(ctx, envelope{Type: typeSecure, ID: id, Session: session, Record: sealQuery(t, channel, "doomed before it returns")})
	if err != nil || parked.Pending != id {
		t.Fatalf("crossing = %+v, %v; want parked under id %d", parked, err, id)
	}
	// Hold the crossing's reply back until the final outcome is in.
	for len(ch) == 0 {
		if ctx.Err() != nil {
			t.Fatal("the final outcome never reached the registered waiter")
		}
		time.Sleep(time.Millisecond)
	}
	pl.deliver(id, pendingOutcome{reply: parked})
	final, err := pl.wait(ctx, id, ch)
	if err != nil {
		t.Fatalf("wait = %v, want the sealed reply", err)
	}
	if _, errstr := openFinal(t, channel, final.encode()); !strings.Contains(errstr, dead) {
		t.Fatalf("sealed error %q, want the engine's dial failure", errstr)
	}
	if ctx.Err() != nil {
		t.Fatal("wait blocked on an outcome that was already delivered")
	}
	waitRendezvousEmpty(t, p)

	// The same through run: the caller gets the error and its slot back.
	if _, err := p.ServeQuery(ctx, "doomed through run"); err == nil || !strings.Contains(err.Error(), dead) {
		t.Fatalf("ServeQuery = %v, want the engine's dial failure", err)
	}
	if n := pl.inFlight(); n != 0 {
		t.Errorf("inFlight = %d after the request returned", n)
	}
	waitRendezvousEmpty(t, p)
	assertEPCInvariant(t, p)
}

// A request that parks for a caller who has gone — no waiter under its id
// when the crossing's Pending reply is delivered — is abandoned: its table
// entries are freed and its engine conn cancelled, long before the engine
// would have answered.
func TestGoneCallerParkedReplyIsAbandoned(t *testing.T) {
	_, srv := newDelayEngine(t, 5*time.Second)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}}, AsyncOcalls: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	pl, pt := p.pipeline, p.trusted.pending

	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := pl.register()
	pl.unregister(id) // the caller gave up before the crossing came back
	parked, err := p.ecall(context.Background(), envelope{Type: typeSecure, ID: id, Session: session, Record: sealQuery(t, channel, "parked for nobody")})
	if err != nil || parked.Pending != id {
		t.Fatalf("crossing = %+v, %v; want parked under id %d", parked, err, id)
	}
	pt.mu.Lock()
	ids, tokens := len(pt.byID), len(pt.byToken)
	pt.mu.Unlock()
	if ids != 1 || tokens != 1 {
		t.Fatalf("before delivery: byID=%d byToken=%d, want 1/1", ids, tokens)
	}
	pl.deliver(id, pendingOutcome{reply: parked})
	waitRendezvousEmpty(t, p)
	// The cancelled step completes (and is resumed as an orphan) at once,
	// not after the engine's five seconds.
	f := p.conns.fetch
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := p.Stats()
		f.mu.Lock()
		conns := len(f.conns)
		f.mu.Unlock()
		if conns == 0 && s.AsyncSubmitted == s.AsyncCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine conn not cancelled: %d conns, async %d/%d", conns, s.AsyncCompleted, s.AsyncSubmitted)
		}
		time.Sleep(time.Millisecond)
	}
	for _, u := range p.Stats().Upstreams {
		if u.Failures != 0 {
			t.Errorf("upstream %s failures = %d: an abandoned fetch charged the breaker", u.Host, u.Failures)
		}
	}
	assertEPCInvariant(t, p)
}

// rendezvousOriginals are queries from eight different corpus topics: a
// reply to one shares words with it and with none of the others.
var rendezvousOriginals = []string{
	"chicken recipe dinner", "mortgage refinance rates", "football playoffs scores", "flights hotel vacation",
	"dealer lease sedan", "lyrics album concert", "movie trailer review", "garden plants seeds",
}

// answers reports whether a successful reply is an answer to query: not
// empty, and some result shares a word with it.
func answers(query string, results []core.Result) bool {
	for _, r := range results {
		text := strings.ToLower(r.Title + " " + r.Snippet + " " + r.URL)
		for _, word := range strings.Fields(query) {
			if strings.Contains(text, word) {
				return true
			}
		}
	}
	return false
}

// Seeded property: whatever mix of completions, coalescing, timeouts and
// give-ups a run produces, every call returns once — with a reply that is
// its own, or an error — and afterwards nothing waits, nothing is parked,
// no admission slot is held and the EPC identity holds.
func TestRendezvousExactlyOneOutcome(t *testing.T) {
	const callers, perCaller = 16, 50
	for _, batched := range []bool{false, true} {
		for _, secure := range []bool{false, true} {
			for seed := uint64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("batched=%t/secure=%t/seed=%d", batched, secure, seed)
				t.Run(name, func(t *testing.T) {
					var tick atomic.Uint64
					_, srv := newHookedEngine(t, func() time.Duration {
						return time.Duration(1+tick.Add(1)%3) * time.Millisecond
					})
					cfg := Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}}, AsyncOcalls: true, PipelineDepth: callers}
					if batched {
						cfg.BatchMax = 8
					}
					p, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Crash()

					var returned atomic.Int64
					var wg sync.WaitGroup
					for c := 0; c < callers; c++ {
						var channel *securechannel.Channel
						var session string
						if secure {
							if channel, session, err = churnClient(p); err != nil {
								t.Fatal(err)
							}
						}
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							rng := rand.New(rand.NewPCG(seed, uint64(c)))
							for i := 0; i < perCaller; i++ {
								query := rendezvousOriginals[rng.IntN(len(rendezvousOriginals))]
								ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.IntN(7))*time.Millisecond)
								var results []core.Result
								var err error
								if secure {
									var out []byte
									if out, err = p.Secure(ctx, session, sealQuery(t, channel, query)); err == nil {
										var resp secureResponse
										if pt, oerr := channel.Open(out); oerr != nil {
											t.Errorf("seed %d caller %d call %d: reply does not open on its own channel: %v", seed, c, i, oerr)
										} else if json.Unmarshal(pt, &resp) != nil || resp.Err != "" {
											err = fmt.Errorf("sealed error %q", resp.Err)
										}
										results = resp.Results
									}
								} else {
									results, err = p.ServeQuery(ctx, query)
								}
								cancel()
								if err == nil && !answers(query, results) {
									t.Errorf("seed %d caller %d call %d: %d results that do not answer %q", seed, c, i, len(results), query)
								}
								returned.Add(1)
							}
						}(c)
					}
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(60 * time.Second):
						t.Fatalf("seed %d: %d of %d calls returned, the rest hang", seed, returned.Load(), callers*perCaller)
					}
					if n := returned.Load(); n != callers*perCaller {
						t.Fatalf("seed %d: %d calls returned, want %d", seed, n, callers*perCaller)
					}
					waitRendezvousEmpty(t, p)
					if n := p.pipeline.inFlight(); n != 0 {
						t.Errorf("seed %d: inFlight = %d after every caller returned", seed, n)
					}
					deadline := time.Now().Add(2 * time.Second)
					s := p.Stats()
					for s.AsyncSubmitted != s.AsyncCompleted && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
						s = p.Stats()
					}
					if s.AsyncSubmitted != s.AsyncCompleted {
						t.Errorf("seed %d: async submitted=%d completed=%d", seed, s.AsyncSubmitted, s.AsyncCompleted)
					}
					if s.CoalesceShared == 0 {
						t.Errorf("seed %d: no flight coalesced: the property never met a follower", seed)
					}
					assertEPCInvariant(t, p)
				})
			}
		}
	}
}

// The runtime names the requests, and the runtime is hostile: an id of
// zero, or one something is already parked under, is that entry's error and
// never touches what is parked; "abandon" refuses an argument that is not
// eight bytes, and there is no "hedge" ecall to send a parked query to a
// second engine.
func TestRendezvousHostileIDs(t *testing.T) {
	_, srv := newDelayEngine(t, 5*time.Second)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	pl, pt := p.pipeline, p.trusted.pending
	ctx := context.Background()
	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	sealed := func(id uint64, query string) envelope {
		return envelope{Type: typeSecure, ID: id, Session: session, Record: sealQuery(t, channel, query)}
	}
	blob := func(id uint64, query string) []byte {
		e := sealed(id, query)
		return e.encode()
	}

	parked, err := p.ecall(ctx, sealed(5, "the parked one"))
	if err != nil || parked.Pending != 5 {
		t.Fatalf("crossing = %+v, %v; want parked under id 5", parked, err)
	}
	pt.mu.Lock()
	original := pt.byID[5]
	pt.mu.Unlock()
	unharmed := func(what string, want int) {
		t.Helper()
		pt.mu.Lock()
		defer pt.mu.Unlock()
		if pt.byID[5] != original || original.done || len(pt.byID) != want {
			t.Fatalf("after %s: byID holds %d entries (want %d), id 5 replaced=%t done=%t",
				what, len(pt.byID), want, pt.byID[5] != original, original.done)
		}
	}

	for _, id := range []uint64{0, 5} {
		if _, err := p.ecall(ctx, sealed(id, "an impostor")); err == nil ||
			!strings.Contains(err.Error(), "zero or already parked") {
			t.Errorf("request with id %d: err = %v, want a refusal", id, err)
		}
		unharmed(fmt.Sprintf("request id %d", id), 1)
	}

	blobs := [][]byte{
		blob(0, "batch impostor zero"),
		blob(5, "batch impostor five"),
		blob(6, "batch newcomer"),
		blob(6, "batch newcomer's twin"),
	}
	frames, err := pl.batchECall("request-batch", blobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range frames {
		var item batchItemReply
		if err := item.decode(raw); err != nil {
			t.Fatal(err)
		}
		if parks := i == 2; parks != (item.Err == "") {
			t.Errorf("batch entry %d: err = %q, parks = %t", i, item.Err, parks)
		}
	}
	unharmed("request-batch", 2)

	for _, n := range []int{0, 7, 9} {
		if _, err := p.encl.ECall(ctx, "abandon", make([]byte, n)); err == nil {
			t.Errorf("abandon accepted a %d-byte argument", n)
		}
	}
	unharmed("abandon with a bad argument", 2)
	if _, err := p.encl.ECall(ctx, "hedge", encodeID(5)); !errors.Is(err, enclave.ErrUnknownECall) {
		t.Errorf("hedge ecall: err = %v, want %v", err, enclave.ErrUnknownECall)
	}
	unharmed("a hedge ecall", 2)

	pl.abandon(5)
	pl.abandon(6)
	waitRendezvousEmpty(t, p)
	assertEPCInvariant(t, p)
}

// Followers' replies ride the winner's crossing: N sessions ask the same
// thing at once, one engine trip answers them all, every reply opens on
// its own channel, and the whole flight costs N request crossings plus its
// resumes — no second ecall per follower.
func TestCoalescedSecureFollowersGetOwnSealedReplies(t *testing.T) {
	addr, trips, open := newGatedEngine(t)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: addr}}, AsyncOcalls: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	const n = 6
	channels := make([]*securechannel.Channel, n)
	sessions := make([]string, n)
	for i := range channels {
		if channels[i], sessions[i], err = churnClient(p); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats().Enclave
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := p.Secure(context.Background(), sessions[i], sealQuery(t, channels[i], "zzqx shared secure flight"))
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			pt, err := channels[i].Open(out)
			if err != nil {
				t.Errorf("session %d: reply does not open on its own channel: %v", i, err)
				return
			}
			var resp secureResponse
			if err := json.Unmarshal(pt, &resp); err != nil || resp.Err != "" {
				t.Errorf("session %d: reply %q, %v", i, resp.Err, err)
			}
		}(i)
	}
	waitCoalesced(t, p, n-1)
	open()
	wg.Wait()

	s := p.Stats()
	if s.CoalesceShared != n-1 || s.CoalesceLed != 1 || trips() != 1 {
		t.Errorf("coalesce shared/led = %d/%d, engine trips = %d; want %d/1 and 1", s.CoalesceShared, s.CoalesceLed, trips(), n-1)
	}
	// Every live step of the flight is one resume; the fresh keep-alive
	// conn is pooled, so no close step rides along.
	steps := s.Enclave.AsyncSubmitted - before.AsyncSubmitted
	if got := s.Enclave.ECalls - before.ECalls; got != n+steps {
		t.Errorf("%d ecalls for %d coalesced secure queries and %d flight steps, want %d", got, n, steps, n+steps)
	}
	waitRendezvousEmpty(t, p)
	assertEPCInvariant(t, p)
}

// waitCoalesced waits until followers requests have attached to a flight.
func waitCoalesced(t *testing.T, p *Proxy, followers uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().CoalesceShared < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers attached", p.Stats().CoalesceShared, followers)
		}
		time.Sleep(time.Millisecond)
	}
}

// The count the re-cut was for: 8 identical concurrent async queries are 8
// request crossings and one resume (16 ecalls when each follower redeemed
// its reply through a "claim" of its own).
func TestCoalescedFlightCostsNineEcalls(t *testing.T) {
	addr, trips, open := newGatedEngine(t)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: addr}}, AsyncOcalls: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()

	const workers = 8
	// Each concurrent caller holds a session of its own, handshaken before
	// the count starts.
	for i := 0; i < workers; i++ {
		c := client.New(InProcess{p}, attestation.Verifier{ServiceKey: p.service.PublicKey(),
			Policy: attestation.Policy{AcceptedMeasurements: []enclave.Measurement{p.Measurement()}}}, p.cfg.ResultsPerList)
		if err := c.Connect(context.Background()); err != nil {
			t.Fatal(err)
		}
		p.idle = append(p.idle, c)
	}
	before := p.Stats().Enclave
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Matches nothing: the response is one small read, one step.
			if _, err := p.ServeQuery(context.Background(), "zzqx qqzx"); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	waitCoalesced(t, p, workers-1)
	open()
	wg.Wait()

	s := p.Stats()
	if s.CoalesceShared != workers-1 || s.CoalesceLed != 1 || trips() != 1 {
		t.Errorf("coalesce shared/led = %d/%d, engine trips = %d; want %d/1 and 1", s.CoalesceShared, s.CoalesceLed, trips(), workers-1)
	}
	if steps := s.Enclave.AsyncSubmitted - before.AsyncSubmitted; steps != 1 {
		t.Fatalf("the flight took %d steps, want 1 (a one-read response)", steps)
	}
	if got := s.Enclave.ECalls - before.ECalls; got != workers+1 {
		t.Errorf("%d ecalls for %d identical queries, want %d (1 leader + %d follower crossings + 1 resume)",
			got, workers, workers+1, workers-1)
	}
	waitRendezvousEmpty(t, p)
}

// No seal runs under the pending-table lock: with the session table held
// (finishReply looks the session up right before it seals), a finalizing
// flight must stop at the seal with its entries already out of the table
// and the table lock free.
func TestCoalescedFinalizeSealsOutsideTableLock(t *testing.T) {
	addr, _, open := newGatedEngine(t)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: addr}}, AsyncOcalls: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	ts, pt := p.trusted, p.trusted.pending

	const n = 2
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		channel, session, err := churnClient(p)
		if err != nil {
			t.Fatal(err)
		}
		record := sealQuery(t, channel, "sealed outside the lock")
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := p.Secure(context.Background(), session, record)
			if err == nil {
				_, err = channel.Open(out)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	waitCoalesced(t, p, n-1)

	ts.mu.Lock() // finishReply's session lookup now blocks
	open()
	deadline := time.Now().Add(5 * time.Second)
	for emptied := false; !emptied; {
		if pt.mu.TryLock() {
			emptied = len(pt.byID) == 0
			pt.mu.Unlock()
		}
		if !emptied && time.Now().After(deadline) {
			ts.mu.Unlock()
			t.Fatal("finalize holds the pending-table lock (or its entries) while it waits to seal")
		}
		time.Sleep(time.Millisecond)
	}
	ts.mu.Unlock()
	wg.Wait()
	waitRendezvousEmpty(t, p)
}

// inlineEngineEnv is an enclave.Env whose switchless ring answers at once:
// a submitted step is completed with a canned engine response and resumed
// on the spot, inside the OCallAsync that submitted it — so a flight
// finalizes while the crossing that launched it is still in park.
type inlineEngineEnv struct {
	burstEnv
	ts      *trustedState
	resumed []resumeReply
}

func (e *inlineEngineEnv) OCallAsync(_ string, arg []byte) (uint64, error) {
	var ask tlsStepArg
	if err := ask.decode(arg); err != nil || ask.Token == 0 {
		return 0, err // a pure close batch completes empty
	}
	body := `[{"url":"http://u/","title":"finalized mid crossing","snippet":"s"}]`
	done := tlsStepReply{Token: ask.Token, Data: []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))}
	out, err := e.ts.handleResume(e, encodeBatch([][]byte{done.encode()}))
	if err != nil {
		return 0, err
	}
	frames, err := decodeBatch(out)
	if err != nil {
		return 0, err
	}
	var rr resumeReply
	if err := rr.decode(frames[0]); err != nil {
		return 0, err
	}
	e.resumed = append(e.resumed, rr)
	return 1, nil
}

// A flight can finalize before a follower's own crossing has looked at it
// (the leader's submission resolves, the engine answers, "resume" runs —
// all while the follower waits to wake). The follower's reply then rides
// that "resume"; its crossing must stay Pending, not make up a reply of
// its own from a table slot it no longer finds.
func TestCoalescedFollowerFinalizedMidCrossingStaysPending(t *testing.T) {
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
	ts := &trustedState{obfuscator: ob, perList: 5, registry: registry, pending: newPendingTable(), flights: core.NewFlightGroup()}
	defer ts.stopFlights()
	env := &inlineEngineEnv{ts: ts}

	channels := map[string]*securechannel.Channel{"leader": pairedSession(t, ts, "leader"), "follower": pairedSession(t, ts, "follower")}
	leader := (&envelope{Type: typeSecure, ID: 1, Session: "leader", Record: sealQuery(t, channels["leader"], "finalized mid crossing")}).encode()
	follower := (&envelope{Type: typeSecure, ID: 2, Session: "follower", Record: sealQuery(t, channels["follower"], "finalized mid crossing")}).encode()
	out, err := ts.handleRequestBatch(env, encodeBatch([][]byte{leader, follower}))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := decodeBatch(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range frames {
		var item batchItemReply
		var reply envelopeReply
		if err := item.decode(raw); err != nil || item.Err != "" {
			t.Fatalf("entry %d: %v %q", i, err, item.Err)
		}
		if err := reply.decode(item.Reply); err != nil || reply.Pending != uint64(i+1) {
			t.Errorf("entry %d: crossing replied %+v (%v), want Pending %d: its final reply is the resume's", i, reply, err, i+1)
		}
	}
	if len(env.resumed) != 1 || env.resumed[0].State != resumeDone || env.resumed[0].PendingID != 1 ||
		len(env.resumed[0].Followers) != 1 || env.resumed[0].Followers[0].ID != 2 {
		t.Fatalf("resumes = %+v, want one final reply for 1 carrying follower 2", env.resumed)
	}
	for who, raw := range map[string][]byte{"leader": env.resumed[0].Reply, "follower": env.resumed[0].Followers[0].Reply} {
		if results, errstr := openFinal(t, channels[who], raw); len(results) != 1 || errstr != "" {
			t.Errorf("%s's final reply: %d results, %q; want the engine's one result", who, len(results), errstr)
		}
	}
	pt := ts.pending
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if left := len(pt.byID) + len(pt.byKey) + len(pt.byToken); left != 0 {
		t.Errorf("%d pending-table entries left behind", left)
	}
}
