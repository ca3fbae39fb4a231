package fleet

import (
	"context"
	"fmt"
	mrand "math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/proxy"
)

// TestChaosFleetSoak is the fleet's state-churn soak: while long-lived and
// freshly attested broker sessions hammer a six-shard gateway, a chaos driver
// alternately kills a shard and drains one through the sealed handoff.
// The soak asserts the properties every crash and drain path must
// preserve:
//
//   - No lost replies: every issued query — steady or churned session — yields
//     exactly one answer within a bounded retry budget (the budget models
//     the broker's normal re-attest recovery, not a hidden failure mode).
//   - No goroutine leaks: killed and drained enclaves and their pipelines
//     all clean up after Shutdown.
//   - The EPC invariant (enclave heap == history + cache + index bytes) holds on
//     every surviving shard after the churn stops.
//
// The destructive schedule is arranged so the fleet can never reach zero
// available shards: one chaos op at a time, each issued only while at
// least three shards are available, so the fleet bottoms out at two.
//
// The soak is sized to run race-clean inside tier-1: ~4s default, ~2s
// with -short.
func TestChaosFleetSoak(t *testing.T) {
	runChaosFleetSoak(t, proxy.Config{K: 2, EchoMode: true, Seed: 11})
}

// TestChaosFleetSoakBatched reruns the chaos soak with every shard running
// the batched ecall seam: kills and drains now land while request batches
// are mid-flight through the vectorized ecalls, so a destroy can
// interleave with a batch's submission burst and a completion batch can
// race a retiring shard. The same properties must hold — zero
// lost replies, no goroutine leaks, the EPC invariant on every survivor —
// and the batcher must actually have carried traffic.
func TestChaosFleetSoakBatched(t *testing.T) {
	runChaosFleetSoak(t, proxy.Config{
		K:             2,
		EchoMode:      true,
		Seed:          11,
		AsyncOcalls:   true,
		PipelineDepth: 16,
		BatchMax:      8,
	})
}

// TestChaosFleetSoakIndexed reruns the chaos soak with the answer tier
// enabled on every shard and a real corpus engine behind the fleet (echo
// mode returns empty result lists, which would leave the index empty):
// kills and drains now land while index inserts, evictions,
// and sealed index handoffs are in flight, and a repeat-heavy topical
// workload keeps the tier churning. The same properties must hold — zero
// lost replies, no goroutine leaks, the extended EPC invariant on every
// survivor — plus the index must have carried documents within its byte
// bound.
func TestChaosFleetSoakIndexed(t *testing.T) {
	_, srv := newIndexTestEngine(t)
	runChaosFleetSoak(t, proxy.Config{
		K:          2,
		Engines:    []proxy.EngineSpec{{Host: srv.Addr()}},
		Seed:       11,
		IndexBytes: 32 << 10, // small enough that eviction churns under load
		IndexTTL:   time.Hour,
	}, func() {
		// Stop the engine server before the goroutine ledger is read: its
		// keep-alive connection handlers (opened by the shards' pools
		// during the soak) are part of this test's footprint, not a fleet
		// leak. http.Server.Shutdown is idempotent, so the t.Cleanup
		// shutdown remains safe.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
}

// chaosTopics phrases the steady workers' queries from the corpus vocabulary
// when the soak runs against a real engine, so fetches return documents
// and the answer tier sees inserts; workers rotate and rephrase them into
// a repeat-heavy stream.
var chaosTopics = []string{
	"chicken recipe oven baking",
	"mortgage refinance loan rates",
	"flights hotel paris resort",
	"garden roses compost mulch",
	"playoff scores roster draft",
	"laptop wireless router software",
}

// preLeakCheck hooks run after the gateway shutdown and before the
// goroutine-leak accounting, so a variant can unwind test-owned
// infrastructure (e.g. its engine server) that is not part of the fleet's
// ledger.
func runChaosFleetSoak(t *testing.T, shardCfg proxy.Config, preLeakCheck ...func()) {
	duration := 4 * time.Second
	if testing.Short() {
		duration = 2 * time.Second
	}
	grace := 5 * time.Second
	before := runtime.NumGoroutine()

	g, err := New(Config{
		Shards:         6,
		ShardConfig:    shardCfg,
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	tr := &http.Transport{}
	hc := &http.Client{Transport: tr, Timeout: 5 * time.Second}

	ctx := context.Background()
	newBroker := func() (*broker.Broker, error) {
		return broker.New(broker.Config{
			ProxyURL:   g.URL(),
			ServiceKey: g.AttestationService().PublicKey(),
			HTTPClient: hc,
			Policy: attestation.Policy{
				AcceptedMeasurements: []enclave.Measurement{g.Measurement()},
			},
		})
	}
	// Long-lived brokers, attested before the chaos starts: the query
	// stream of a user who stays.
	steady := make([]*broker.Broker, 4)
	for w := range steady {
		b, err := newBroker()
		if err == nil {
			err = b.Connect(ctx)
		}
		if err != nil {
			t.Fatalf("steady broker %d: %v", w, err)
		}
		steady[w] = b
	}
	stopAt := time.Now().Add(duration)
	var wg sync.WaitGroup
	var steadyIssued, steadyLost, secureIssued, secureLost atomic.Int64

	// Steady sessions: a kill or drain takes a broker's session with its
	// shard, and the broker's transparent re-attest lands it on a live one;
	// a query that still errs gets two retries before it counts as lost.
	for w, b := range steady {
		wg.Add(1)
		go func(w int, b *broker.Broker) {
			defer wg.Done()
			for i := 0; time.Now().Before(stopAt); i++ {
				q := fmt.Sprintf("chaos w%d q%d", w, i)
				if len(shardCfg.Engines) > 0 {
					// Real engine behind the fleet: a repeat-heavy topical
					// stream so fetches return documents and the answer
					// tier (when enabled) sees inserts and probes.
					q = chaosTopics[(w+i)%len(chaosTopics)]
					if i%4 == 0 {
						q = fmt.Sprintf("%s w%d q%d", q, w, i)
					}
				}
				steadyIssued.Add(1)
				ok := false
				for attempt := 0; attempt < 3 && !ok; attempt++ {
					if _, err := b.Search(ctx, q); err == nil {
						ok = true
					}
				}
				if !ok {
					steadyLost.Add(1)
				}
			}
		}(w, b)
	}

	// Secure-session churn: brokers attest, search, and get abandoned;
	// killed/drained sessions recover through the broker's transparent
	// re-attest. A fresh broker per burst keeps handshakes flowing so the
	// routing table churns alongside the shards.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stopAt); i++ {
				b, err := newBroker()
				if err != nil {
					t.Errorf("broker.New: %v", err)
					return
				}
				if err := b.Connect(ctx); err != nil {
					continue // handshake raced a kill; next burst re-attests
				}
				for q := 0; q < 4 && time.Now().Before(stopAt); q++ {
					secureIssued.Add(1)
					ok := false
					for attempt := 0; attempt < 3 && !ok; attempt++ {
						if _, err := b.Search(ctx, fmt.Sprintf("secure w%d s%d q%d", w, i, q)); err == nil {
							ok = true
						}
					}
					if !ok {
						secureLost.Add(1)
					}
				}
			}
		}(w)
	}

	// The chaos driver: every duration/6 it kills or drains (alternately)
	// one shard the rng picks, but only while at least three are
	// available, so the fleet can never be driven to zero.
	var kills, drains int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := mrand.New(mrand.NewPCG(7, 13))
		for op := 0; ; op++ {
			time.Sleep(duration / 6)
			if !time.Now().Before(stopAt) {
				return
			}
			var avail []int
			for _, ss := range g.Stats().Shards {
				if ss.Alive && !ss.Draining {
					avail = append(avail, ss.Index)
				}
			}
			if len(avail) < 3 {
				continue
			}
			target := avail[rng.IntN(len(avail))]
			opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
			if op%2 == 0 {
				if err := g.Kill(opCtx, target); err == nil {
					kills++
				}
			} else if _, err := g.Drain(opCtx, target); err == nil {
				drains++
			}
			cancel()
		}
	}()

	wg.Wait()

	st := g.Stats()
	t.Logf("soak: %d steady / %d churned-session queries; chaos: %d kills, %d drains; fleet: drains=%d alive=%d of %d",
		steadyIssued.Load(), secureIssued.Load(), kills, drains,
		st.Drains, st.AliveShards, st.CurrentShards)
	if steadyIssued.Load() == 0 || secureIssued.Load() == 0 {
		t.Fatal("soak drove no traffic")
	}
	if lost := steadyLost.Load(); lost != 0 {
		t.Fatalf("%d of %d steady-session queries lost", lost, steadyIssued.Load())
	}
	if lost := secureLost.Load(); lost != 0 {
		t.Fatalf("%d of %d secure queries lost", lost, secureIssued.Load())
	}
	if kills == 0 || drains == 0 {
		t.Fatalf("soak did not both kill and drain a shard (kills=%d drains=%d)", kills, drains)
	}
	if shardCfg.BatchMax > 0 && st.Total.BatchesSubmitted == 0 {
		t.Fatal("batched soak submitted no vectorized ecalls")
	}

	// Every surviving shard must hold the EPC identity once quiescent.
	for _, ss := range st.Shards {
		if !ss.Alive {
			continue
		}
		requireInvariant(t, fmt.Sprintf("surviving shard %d", ss.Index), ss.Proxy)
	}

	if shardCfg.IndexBytes > 0 {
		// The indexed soak must end with a working answer tier: drive a few
		// post-churn topical queries, then require indexed documents within
		// the configured byte bound on the quiescent fleet.
		for i := 0; i < len(chaosTopics); i++ {
			if _, err := steady[i%len(steady)].Search(ctx, chaosTopics[i]); err != nil {
				t.Fatalf("post-soak query %d: %v", i, err)
			}
		}
		ist := g.Stats()
		if ist.Total.IndexDocs == 0 {
			t.Fatal("indexed soak ended with an empty answer tier fleet-wide")
		}
		for _, ss := range ist.Shards {
			if !ss.Alive {
				continue
			}
			if ss.Proxy.IndexB > shardCfg.IndexBytes {
				t.Fatalf("shard %d index bytes %d exceed bound %d",
					ss.Index, ss.Proxy.IndexB, shardCfg.IndexBytes)
			}
			requireInvariant(t, fmt.Sprintf("post-soak shard %d", ss.Index), ss.Proxy)
		}
	}

	// Teardown, then the goroutine ledger must balance (with grace for
	// HTTP keep-alives and runtime bookkeeping to unwind).
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, b := range steady {
		_ = b.Close()
	}
	tr.CloseIdleConnections()
	for _, hook := range preLeakCheck {
		hook()
	}
	deadline := time.Now().Add(grace)
	for {
		now := runtime.NumGoroutine()
		if now <= before+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before soak, %d after shutdown", before, now)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
