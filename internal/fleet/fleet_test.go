package fleet

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
	"xsearch/internal/securechannel"
)

// echoFleet builds a fleet of echo-mode shards (no engine needed) with a
// health interval long enough that tests exercise the request-path death
// discovery unless they opt into the probe loop.
func echoFleet(t testing.TB, shards int, healthInterval time.Duration) *Gateway {
	t.Helper()
	g, err := New(Config{
		Shards:         shards,
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5},
		HealthInterval: healthInterval,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})
	return g
}

// Every Config field is a knob someone must understand, set and test; as
// with proxy.Config, raising this number is an explicit edit.
func TestFleetConfigFieldBudget(t *testing.T) {
	const budget = 3
	if n := reflect.TypeOf(Config{}).NumField(); n > budget {
		t.Fatalf("fleet.Config has %d fields, budget %d", n, budget)
	}
}

// TestHandshakesSpreadEvenly: a new session goes to the available shard
// with the fewest minted sessions, the lowest index on a tie, so
// handshakes fill the ring evenly and a dead shard takes none.
func TestHandshakesSpreadEvenly(t *testing.T) {
	g := echoFleet(t, 4, time.Hour)
	minted := func() []int64 {
		var out []int64
		for _, sh := range g.shards {
			out = append(out, sh.minted.Load())
		}
		return out
	}
	if session, _ := gatewayHandshake(t, g); !strings.HasPrefix(session, "0.") {
		t.Fatalf("first handshake on a fresh fleet got %q, want shard 0 (the tie rule)", session)
	}
	for i := 1; i < 40; i++ {
		gatewayHandshake(t, g)
	}
	if got := minted(); !reflect.DeepEqual(got, []int64{10, 10, 10, 10}) {
		t.Fatalf("40 handshakes spread %v, want 10 on each shard", got)
	}
	if err := g.Kill(context.Background(), 2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	for i := 0; i < 30; i++ {
		session, _ := gatewayHandshake(t, g)
		if shard, ok := g.ShardOf(session); !ok || shard == 2 {
			t.Fatalf("post-kill handshake %d landed on shard %d (%t)", i, shard, ok)
		}
	}
	if got := minted(); !reflect.DeepEqual(got, []int64{20, 20, 10, 20}) {
		t.Fatalf("30 more handshakes with shard 2 dead spread %v, want 20 on each live shard", got)
	}
	if st := g.Stats(); st.Errors != 0 {
		t.Fatalf("no handshake should have failed, got %d errors", st.Errors)
	}
}

// A killed shard takes no new session: every handshake still lands, on the
// live shard the pick named.
func TestHandshakesFailOverOnShardKill(t *testing.T) {
	g := echoFleet(t, 4, time.Hour) // health loop effectively off
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		gatewayHandshake(t, g)
	}
	if err := g.Kill(ctx, 2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Every handshake must still succeed, on a live shard: the one picked.
	for i := 0; i < 40; i++ {
		session, preferred := gatewayHandshake(t, g)
		shard, ok := g.ShardOf(session)
		if !ok || shard == 2 || (preferred != 2 && shard != preferred) {
			t.Fatalf("post-kill handshake %d landed on shard %d (%t), picked %d", i, shard, ok, preferred)
		}
	}
	st := g.Stats()
	if st.Errors != 0 {
		t.Fatalf("no request should have failed, got %d errors", st.Errors)
	}
	if st.AliveShards != 3 {
		t.Fatalf("AliveShards = %d, want 3", st.AliveShards)
	}
}

// slowEchoFleet is echoFleet with one TCS per shard and a priced
// transition, so a test can hold a handshake inside a shard's enclave.
func slowEchoFleet(t *testing.T, shards int, transition time.Duration) *Gateway {
	t.Helper()
	g, err := New(Config{
		Shards: shards,
		ShardConfig: proxy.Config{K: 2, EchoMode: true, Seed: 5,
			EnclaveConfig: enclave.Config{TCSCount: 1, TransitionCost: transition}},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = g.Shutdown(context.Background()) })
	return g
}

// handshakeAsync runs one gateway handshake with a fresh client offer and
// delivers the session id it handed out, or the error.
func handshakeAsync(g *Gateway, out chan<- string, errs chan<- error) {
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		errs <- err
		return
	}
	offer, err := hs.Offer().Marshal()
	if err != nil {
		errs <- err
		return
	}
	resp, err := g.Handshake(context.Background(), offer, make([]byte, 16))
	if err != nil {
		errs <- err
		return
	}
	out <- resp.Session
}

// A shard that dies under a handshake is retired and the next pick is
// tried, whether the handshake completed inside it (A, already in the
// enclave at the kill) or failed there (B, queued behind A for the one
// TCS): neither hands the broker a session on the dead shard.
func TestHandshakeOnADyingShardMovesToTheNext(t *testing.T) {
	g := slowEchoFleet(t, 2, 30*time.Millisecond)
	g.shards[1].minted.Store(5) // both handshakes pick shard 0
	sessions, errs := make(chan string, 2), make(chan error, 2)
	shard0 := g.shards[0]
	spinUntil := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	entered := shard0.proxy.Stats().Enclave.ECalls
	go handshakeAsync(g, sessions, errs)
	spinUntil("handshake A inside shard 0", func() bool { return shard0.proxy.Stats().Enclave.ECalls > entered })
	go handshakeAsync(g, sessions, errs)
	spinUntil("handshake B's pick of shard 0", func() bool { return shard0.minted.Load() == 2 })
	if err := g.Kill(context.Background(), 0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case s := <-sessions:
			if !strings.HasPrefix(s, "1.") {
				t.Errorf("handshake %d handed out %q, want a session on shard 1", i, s)
			}
		case err := <-errs:
			t.Errorf("handshake %d: %v", i, err)
		}
	}
	if st := g.Stats(); st.Errors != 0 {
		t.Errorf("gateway errors = %d, want 0", st.Errors)
	}
}

// Handshakes in flight together see each other's picks: 8 concurrent
// handshakes on 4 shards spread 2/2/2/2, as 8 sequential ones would.
func TestConcurrentHandshakesSpreadLikeSequentialOnes(t *testing.T) {
	g := slowEchoFleet(t, 4, 20*time.Millisecond)
	sessions, errs := make(chan string, 8), make(chan error, 8)
	for i := 0; i < 8; i++ {
		go handshakeAsync(g, sessions, errs)
	}
	for i := 0; i < 8; i++ {
		select {
		case <-sessions:
		case err := <-errs:
			t.Fatalf("handshake %d: %v", i, err)
		}
	}
	if got := shardSessions(g); !reflect.DeepEqual(got, []int{2, 2, 2, 2}) {
		t.Fatalf("8 concurrent handshakes spread %v, want 2 on each shard", got)
	}
}

func TestHealthLoopRetiresDeadShard(t *testing.T) {
	g := echoFleet(t, 3, 10*time.Millisecond)
	ctx := context.Background()
	if err := g.Kill(ctx, 1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if g.Stats().AliveShards == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("health loop never retired the killed shard: %+v", g.Stats())
}

func TestDrainNeedsALiveSuccessor(t *testing.T) {
	g := echoFleet(t, 1, time.Hour)
	if _, err := g.Drain(context.Background(), 0); err == nil {
		t.Fatal("draining the only shard should fail")
	}
	if !g.shards[0].available() {
		t.Fatal("failed drain must leave the shard available")
	}
}

// TestDrainSuccessorIsTheLeastLoadedShard: a drain's successor is the
// pick a new session would get once the drained shard stops taking work —
// the fewest minted sessions, not the lowest index, with the lowest index
// only breaking the tie between shards 2 and 3.
func TestDrainSuccessorIsTheLeastLoadedShard(t *testing.T) {
	g := echoFleet(t, 4, time.Hour)
	for i, n := range []int64{3, 2, 1, 1} {
		g.shards[i].minted.Store(n)
	}
	rep, err := g.Drain(context.Background(), 0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Successor != 2 {
		t.Fatalf("successor = %d, want 2 (fewest minted, lowest index of the tie)", rep.Successor)
	}
}

// TestFleetPassesPipelineConfigAndMergesGauges builds an async-pipelined
// fleet: every shard must run the staged hot path (the template's
// AsyncOcalls/PipelineDepth flow through to each shard's enclave) and the
// fleet snapshot must merge the per-shard pipeline gauges.
func TestFleetPassesPipelineConfigAndMergesGauges(t *testing.T) {
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	g, err := New(Config{
		Shards: 2,
		ShardConfig: proxy.Config{
			K:             2,
			Engines:       []proxy.EngineSpec{{Host: srv.Addr()}},
			Seed:          7,
			AsyncOcalls:   true,
			PipelineDepth: 8,
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()

	ctx := context.Background()
	for i := 0; i < 16; i++ {
		p, err := g.Shard(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ServeQuery(ctx, fmt.Sprintf("pipeline fleet query %d", i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	st := g.Stats()
	var perShard uint64
	shardsUsed := 0
	for _, ss := range st.Shards {
		if ss.Proxy.PipelineDepth != 8 {
			t.Errorf("shard %d pipeline depth = %d, want 8", ss.Index, ss.Proxy.PipelineDepth)
		}
		if ss.Proxy.AsyncSubmitted > 0 {
			shardsUsed++
		}
		perShard += ss.Proxy.AsyncSubmitted
	}
	if shardsUsed < 2 {
		t.Errorf("only %d of 2 shards ran async fetches", shardsUsed)
	}
	if st.Total.AsyncSubmitted != perShard || st.Total.AsyncSubmitted == 0 {
		t.Errorf("merged AsyncSubmitted = %d, per-shard sum = %d", st.Total.AsyncSubmitted, perShard)
	}
}

// TestBrokerSessionsSurviveShardKill runs the attested client path end to
// end through the gateway: brokers handshake onto the shards the gateway
// picks, a shard is killed, and every broker keeps working because session
// loss makes it re-attest onto a live shard.
func TestBrokerSessionsSurviveShardKill(t *testing.T) {
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	g, err := New(Config{
		Shards: 2,
		ShardConfig: proxy.Config{
			K:       2,
			Engines: []proxy.EngineSpec{{Host: srv.Addr()}},
			Seed:    7,
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	ctx := context.Background()
	// Keep connecting brokers until both shards hold at least one session
	// (the pick alternates them, so two brokers cover both).
	var brokers []*broker.Broker
	shardsCovered := func() bool {
		st := g.Stats()
		return len(st.Shards) == 2 && st.Shards[0].Sessions > 0 && st.Shards[1].Sessions > 0
	}
	for i := 0; i < 64 && !shardsCovered(); i++ {
		b, err := broker.New(broker.Config{
			ProxyURL:   g.URL(),
			ServiceKey: g.AttestationService().PublicKey(),
			Policy: attestation.Policy{
				AcceptedMeasurements: []enclave.Measurement{g.Measurement()},
			},
		})
		if err != nil {
			t.Fatalf("broker.New: %v", err)
		}
		if err := b.Connect(ctx); err != nil {
			t.Fatalf("Connect: %v", err)
		}
		brokers = append(brokers, b)
	}
	if !shardsCovered() {
		t.Fatalf("sessions never covered both shards: %+v", g.Stats().Shards)
	}

	for i, b := range brokers {
		if _, err := b.Search(ctx, fmt.Sprintf("healthy search %d", i)); err != nil {
			t.Fatalf("healthy search %d: %v", i, err)
		}
	}
	if err := g.Kill(ctx, 0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Every broker must keep working: the ones whose shard died get a
	// session-loss error from the gateway, re-attest, and land on shard 1.
	for i, b := range brokers {
		if _, err := b.Search(ctx, fmt.Sprintf("post-kill search %d", i)); err != nil {
			t.Fatalf("post-kill search %d: %v", i, err)
		}
	}
	st := g.Stats()
	if st.SessionsLost == 0 {
		t.Fatalf("expected lost sessions after kill, stats: %+v", st)
	}
	if st.Shards[0].Alive || !st.Shards[1].Alive {
		t.Fatalf("shard liveness wrong: %+v", st.Shards)
	}
	if len(st.Total.Upstreams) != 1 || st.Total.Upstreams[0].Served == 0 {
		t.Fatalf("merged upstream stats wrong: %+v", st.Total.Upstreams)
	}
}
