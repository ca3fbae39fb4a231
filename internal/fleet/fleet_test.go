package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
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

func TestHRWRoutingIsDeterministicAndSpreads(t *testing.T) {
	g := echoFleet(t, 4, time.Hour)
	seen := make(map[int]int)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("q:query %d", i)
		first := g.rank(key)[0].index
		for rep := 0; rep < 3; rep++ {
			if got := g.rank(key)[0].index; got != first {
				t.Fatalf("key %q ranked shard %d then %d", key, first, got)
			}
		}
		seen[first]++
	}
	if len(seen) != 4 {
		t.Fatalf("64 keys landed on only %d of 4 shards: %v", len(seen), seen)
	}
}

func TestPlainQueriesFailOverOnShardKill(t *testing.T) {
	g := echoFleet(t, 4, time.Hour) // health loop effectively off
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if _, err := g.ServeQuery(ctx, fmt.Sprintf("warm query %d", i)); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
	}
	if err := g.Kill(ctx, 2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Every query must still succeed; the ones whose HRW shard was killed
	// discover the death on first touch and fail over.
	for i := 0; i < 40; i++ {
		if _, err := g.ServeQuery(ctx, fmt.Sprintf("warm query %d", i)); err != nil {
			t.Fatalf("post-kill query %d: %v", i, err)
		}
	}
	st := g.Stats()
	if st.Failovers == 0 {
		t.Fatalf("expected failovers after killing a shard, stats: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("no request should have failed, got %d errors", st.Errors)
	}
	if st.AliveShards != 3 {
		t.Fatalf("AliveShards = %d, want 3", st.AliveShards)
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
		if _, err := g.ServeQuery(ctx, fmt.Sprintf("pipeline fleet query %d", i)); err != nil {
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
	if st.AsyncSubmitted != perShard || st.AsyncSubmitted == 0 {
		t.Errorf("merged AsyncSubmitted = %d, per-shard sum = %d", st.AsyncSubmitted, perShard)
	}
}

// TestBrokerSessionsSurviveShardKill runs the attested client path end to
// end through the gateway: brokers handshake onto HRW-pinned shards, a
// shard is killed, and every broker keeps working because session loss
// makes it re-attest onto a live shard.
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
	// (offers are random, so placement is random but quickly covers both).
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
	if len(st.Upstreams) != 1 || st.Upstreams[0].Served == 0 {
		t.Fatalf("merged upstream stats wrong: %+v", st.Upstreams)
	}
}

// TestGatewaySessionOrderStaysBounded pins the eviction order to the live
// pins. A fleet that loses and re-attests sessions below MaxSessions — every
// shard kill, drain and scale-down does exactly that — must not grow order by
// one id per handshake for the life of the process (forget and
// dropShardSessions delete the pin and leave the id), and squeezing the
// stale ids out must not disturb FIFO eviction among the pins still live.
func TestGatewaySessionOrderStaysBounded(t *testing.T) {
	g, err := New(Config{
		Shards:         2,
		MaxSessions:    8,
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = g.Shutdown(context.Background()) }()
	a, b := g.shards[0], g.shards[1]

	// Churn far below the table bound: pins come and go one at a time and a
	// shard's worth at a time, as sessions re-attest around kills and drains.
	for i := 0; i < 20000; i++ {
		id, sh := fmt.Sprintf("churn-%d", i), a
		if i%2 == 1 {
			sh = b
		}
		g.remember(id, sh)
		if n, live := len(g.order), len(g.sessions); n > 2*live {
			t.Fatalf("after %d handshakes: %d order entries for %d live pins", i+1, n, live)
		}
		switch {
		case sh == a:
			g.forget(id)
		case i%7 == 0:
			g.dropShardSessions(b)
		}
	}
	g.dropShardSessions(b)

	// FIFO among the live: fill the table, forget enough of the middle that
	// the next handshake squeezes the order, then overflow it. The evicted
	// pin is the oldest one still live, never a newer one.
	for i := 0; i < 8; i++ {
		g.remember(fmt.Sprintf("s%d", i), a)
	}
	for _, i := range []int{1, 2, 3, 4, 5} {
		g.forget(fmt.Sprintf("s%d", i))
	}
	for i := 8; i < 13; i++ { // s0 s6 s7 + s8..s12 = 8 live: full again
		g.remember(fmt.Sprintf("s%d", i), a)
	}
	g.remember("s13", a) // evicts s0
	g.remember("s14", a) // evicts s6
	for id, want := range map[string]bool{"s0": false, "s6": false, "s7": true, "s8": true, "s13": true, "s14": true} {
		if _, ok := g.lookup(id); ok != want {
			t.Errorf("session %s pinned = %t, want %t (order %v)", id, ok, want, g.order)
		}
	}
	if len(g.sessions) != 8 {
		t.Errorf("%d live pins, want the table bound 8", len(g.sessions))
	}
}
