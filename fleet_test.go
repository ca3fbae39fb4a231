package xsearch_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"xsearch"
)

// fleetStack boots engine + 3-shard fleet + attested client through the
// public API only — exactly what a downstream user writes.
func fleetStack(t *testing.T) (*xsearch.Engine, *xsearch.Fleet, *xsearch.Client) {
	t.Helper()
	engine := xsearch.NewEngine(xsearch.WithCorpusSize(20), xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	})

	fleet, err := xsearch.NewFleet(
		xsearch.WithShardCount(3),
		xsearch.WithShardConfig(
			xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
			xsearch.WithFakeQueries(2),
			xsearch.WithProxySeed(1),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = fleet.Shutdown(ctx)
	})

	client, err := xsearch.NewClient(fleet.URL(),
		xsearch.WithTrustedMeasurement(fleet.Measurement()),
		xsearch.WithAttestationKey(fleet.AttestationKey()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	return engine, fleet, client
}

// TestFleetPublicAPIEndToEnd drives the attested path through the gateway,
// survives a shard crash, and drains a shard — all via the public surface.
func TestFleetPublicAPIEndToEnd(t *testing.T) {
	engine, fleet, client := fleetStack(t)
	ctx := context.Background()

	if fleet.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d", fleet.ShardCount())
	}
	for i := 0; i < 6; i++ {
		if _, err := client.Search(ctx, fmt.Sprintf("fleet api search %d", i)); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	st := fleet.Stats()
	if st.AliveShards != 3 || st.SessionsActive == 0 {
		t.Fatalf("stats before kill: %+v", st)
	}
	// The engine only ever sees obfuscated queries, fleet or not. (The
	// very first query on a cold shard has an empty fake pool — the
	// paper's bootstrap case — so assert on a later one.)
	for _, l := range engine.QueryLog() {
		if l.Query == "fleet api search 5" {
			t.Fatalf("engine saw a bare original query: %q", l.Query)
		}
	}

	// Crash a shard: the client must keep working (re-attesting if its
	// session was pinned there).
	if err := fleet.KillShard(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Search(ctx, "after the crash"); err != nil {
		t.Fatalf("search after kill: %v", err)
	}

	// Drain another shard: its history migrates to a survivor.
	rep, err := fleet.DrainShard(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Successor != 2 {
		t.Fatalf("successor = %d, want the only survivor 2", rep.Successor)
	}
	if rep.MigratedQueries == 0 && fleet.Stats().Shards[2].Proxy.HistoryLen == 0 {
		t.Fatal("nothing migrated and successor history empty")
	}
	if _, err := client.Search(ctx, "after the drain"); err != nil {
		t.Fatalf("search after drain: %v", err)
	}
	st = fleet.Stats()
	if st.AliveShards != 1 {
		t.Fatalf("AliveShards = %d after kill+drain", st.AliveShards)
	}
	succ := st.Shards[2].Proxy
	if succ.Enclave.HeapBytes != succ.HistoryB+succ.CacheB+succ.IndexB {
		t.Fatalf("EPC invariant broken on survivor: heap=%d history=%d cache=%d",
			succ.Enclave.HeapBytes, succ.HistoryB, succ.CacheB)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := xsearch.NewFleet(xsearch.WithShardCount(0)); err == nil {
		t.Error("zero shards accepted")
	}
	// A fleet needs engines (or echo mode) like any proxy.
	if _, err := xsearch.NewFleet(xsearch.WithShardCount(2)); err == nil {
		t.Error("fleet without engines accepted")
	}
}
