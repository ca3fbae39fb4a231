// Fleet demonstrates the sharded enclave fleet live: a session-routing
// gateway fronts four proxy-enclave shards and opens each attested session
// on the shard with the fewest sessions (the lowest index on a tie), where
// it stays, so its obfuscation always draws from that shard's in-enclave
// history window. The demo then kills one shard (clients re-attest onto
// live shards, no request is lost) and drains another (its history window
// migrates to a successor as a sealed blob the host can move but never
// read). It exits 1 if any client's search fails.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"xsearch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	engine := xsearch.NewEngine(xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = engine.Shutdown(context.Background()) }()

	fleet, err := xsearch.NewFleet(
		xsearch.WithShardCount(4),
		xsearch.WithShardConfig(
			xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
			xsearch.WithFakeQueries(2),
			xsearch.WithProxySeed(1),
		),
	)
	if err != nil {
		return err
	}
	if err := fleet.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = fleet.Shutdown(context.Background()) }()
	fmt.Printf("fleet gateway on %s fronting %d enclave shards (one measurement: %s)\n\n",
		fleet.Addr(), fleet.ShardCount(), fleet.Measurement())

	// A handful of users, each a broker with an attested session. The
	// gateway spreads the sessions evenly: 8 clients, 2 per shard.
	var clients []*xsearch.Client
	for i := 0; i < 8; i++ {
		c, err := xsearch.NewClient(fleet.URL(),
			xsearch.WithTrustedMeasurement(fleet.Measurement()),
			xsearch.WithAttestationKey(fleet.AttestationKey()))
		if err != nil {
			return err
		}
		if err := c.Connect(ctx); err != nil {
			return err
		}
		clients = append(clients, c)
	}
	queries := []string{
		"mortgage rates", "garden roses", "playoff scores", "paris flights",
		"chicken recipe", "knitting pattern", "used car dealer", "tax return help",
	}
	searchAll := func(phase string) error {
		for i, c := range clients {
			if _, err := c.Search(ctx, phase+" "+queries[i%len(queries)]); err != nil {
				return fmt.Errorf("%s client %d: %w", phase, i, err)
			}
		}
		return nil
	}

	// Phase 1: sessions spread across the shards; each shard's history
	// window holds only its own sessions' queries.
	if err := searchAll("steady"); err != nil {
		return err
	}
	st := fleet.Stats()
	fmt.Println("phase 1 (steady state): sessions spread over the least-loaded shards")
	for _, ss := range st.Shards {
		fmt.Printf("  shard %d: %d sessions, history %d queries / %d B (enclave heap %d B)\n",
			ss.Index, ss.Sessions, ss.Proxy.HistoryLen, ss.Proxy.HistoryB,
			ss.Proxy.Enclave.HeapBytes)
	}
	fmt.Println()

	// Phase 2: a shard host dies. Its sessions' channel keys die with the
	// enclave; each affected broker re-attests automatically and lands on
	// a live shard. No request is lost.
	if err := fleet.KillShard(ctx, 1); err != nil {
		return err
	}
	if err := searchAll("failover"); err != nil {
		return err
	}
	st = fleet.Stats()
	fmt.Printf("phase 2 (shard 1 killed): all clients still served; %d sessions re-attested, %d alive shards\n\n",
		st.SessionsLost, st.AliveShards)

	// Phase 3: planned drain. Shard 2's history window migrates to its
	// successor as a sealed blob — the gateway moves opaque bytes; only
	// the successor enclave can open them.
	before := fleet.Stats()
	rep, err := fleet.DrainShard(ctx, 2)
	if err != nil {
		return err
	}
	after := fleet.Stats()
	fmt.Printf("phase 3 (shard 2 drained): %d history queries (%d B) sealed and merged into shard %d\n",
		rep.MigratedQueries, rep.MigratedBytes, rep.Successor)
	fmt.Printf("  successor history: %d -> %d queries; enclave heap still equals history+cache+index: %t\n",
		before.Shards[rep.Successor].Proxy.HistoryLen,
		after.Shards[rep.Successor].Proxy.HistoryLen,
		after.Shards[rep.Successor].Proxy.Enclave.HeapBytes ==
			after.Shards[rep.Successor].Proxy.HistoryB+
				after.Shards[rep.Successor].Proxy.CacheB+
				after.Shards[rep.Successor].Proxy.IndexB)
	if err := searchAll("drained"); err != nil {
		return err
	}
	st = fleet.Stats()
	fmt.Printf("  all clients still served on %d remaining shards\n\n", st.AliveShards)

	fmt.Printf("gateway totals: %d handshakes, %d secure requests, %d sessions lost, %d drains\n",
		st.Handshakes, st.SecureRouted, st.SessionsLost, st.Drains)
	fmt.Println("\nkilling a shard costs its sessions one re-attestation; draining one costs")
	fmt.Println("nothing — the privacy state moves, sealed, and k-anonymity holds per shard.")
	return nil
}
