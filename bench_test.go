package xsearch_test

// One benchmark per figure of the paper's evaluation, plus the paper's own
// ablations. Each bench regenerates a scaled-down version of its experiment
// per iteration; cmd/xsearch-bench runs the full-size versions and prints
// their tables.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"xsearch/internal/experiments"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
)

// benchFixture is built once: the dataset and attack index are shared by
// every figure bench.
var (
	benchFixtureOnce sync.Once
	benchFixture     *experiments.Fixture
	benchFixtureErr  error
)

func getBenchFixture(b *testing.B) *experiments.Fixture {
	b.Helper()
	benchFixtureOnce.Do(func() {
		benchFixture, benchFixtureErr = experiments.NewFixture(experiments.FixtureConfig{
			Users: 80, MeanQueries: 150, ActiveUsers: 50, Seed: 1,
		})
	})
	if benchFixtureErr != nil {
		b.Fatal(benchFixtureErr)
	}
	return benchFixture
}

// BenchmarkFig1FakeQueryRealism regenerates Figure 1: the CCDF of maximum
// similarity between generated fake queries (PEAS co-occurrence, TMN RSS,
// X-Search real past queries) and the real query log.
func BenchmarkFig1FakeQueryRealism(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(f, experiments.Fig1Config{Fakes: 300, Points: 21, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.XSearchMedian < 0.999 {
			b.Fatalf("X-Search fake median similarity %f", res.XSearchMedian)
		}
	}
}

// BenchmarkFig3ReIdentification regenerates Figure 3: SimAttack
// re-identification rate versus k for X-Search and PEAS.
func BenchmarkFig3ReIdentification(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(f, experiments.Fig3Config{MaxK: 7, TestQueries: 150})
		if err != nil {
			b.Fatal(err)
		}
		if res.XSearch[7] > res.RateAtK0 {
			b.Fatalf("obfuscation raised the re-identification rate")
		}
	}
}

// BenchmarkFig4Accuracy regenerates Figure 4: precision/recall of the
// filtered results versus k under the paper's split-and-merge methodology.
func BenchmarkFig4Accuracy(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(f, experiments.Fig4Config{
			MaxK: 7, Queries: 30, TopN: 20, DocsPerTopic: 60, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Recall[0] < 0.5 {
			b.Fatalf("k=0 recall %f", res.Recall[0])
		}
	}
}

// BenchmarkFig5Throughput regenerates Figure 5: the latency/throughput
// sweep over the X-Search proxy, the PEAS chain and Tor circuits (echo
// configurations, isolating proxy capacity).
func BenchmarkFig5Throughput(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(f, experiments.Fig5Config{
			XSearchRates:     []float64{2000, 8000},
			PEASRates:        []float64{500, 2000},
			TorRates:         []float64{50, 200},
			Duration:         300 * time.Millisecond,
			Workers:          32,
			MaxP50:           2 * time.Second,
			TorHopDelay:      500 * time.Microsecond,
			TorRelayCellRate: 2000,
			Seed:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points["X-Search"]) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig6Memory regenerates Figure 6: history-store occupancy versus
// stored queries against the 90 MB EPC line.
func BenchmarkFig6Memory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(experiments.Fig6Config{
			MaxQueries: 100000, Checkpoints: 10, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.FitsEPC {
			b.Fatal("history exceeded EPC")
		}
	}
}

// BenchmarkFig7EndToEnd regenerates Figure 7: the CDF of end-to-end search
// round-trip time for Direct, X-Search (k=3) and Tor over the WAN model
// (time-compressed).
func BenchmarkFig7EndToEnd(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(f, experiments.Fig7Config{
			Queries:      15,
			K:            3,
			EngineMedian: 150 * time.Millisecond,
			Scale:        0.02,
			Circuits:     3,
			Points:       10,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Median["Tor"] <= res.Median["Direct"] {
			b.Fatal("latency ordering violated")
		}
	}
}

// BenchmarkAblationFakeSource compares re-identification under real-past-
// query fakes versus synthetic co-occurrence fakes in the same pipeline.
func BenchmarkAblationFakeSource(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationFakeSource(f, 3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFiltering measures what Algorithm 2 buys in precision.
func BenchmarkAblationFiltering(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationFiltering(f, 3, 20, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHistorySize sweeps the sliding-window bound x.
func BenchmarkAblationHistorySize(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHistorySize(f, 3, []int{100, 1000}, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransitionCost isolates the enclave boundary-crossing
// overhead on proxy throughput.
func BenchmarkAblationTransitionCost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationTransitionCost(3*time.Microsecond, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkEngineRoundTrip measures the proxy's engine round trip under
// one scaling-layer configuration: poolSize < 0 is the paper's original
// dial-per-request behaviour, poolSize > 0 enables in-enclave keep-alive
// reuse, and cacheBytes > 0 additionally serves repeats from the result
// cache. repeatQuery repeats one query per iteration (the cache-hit path);
// otherwise every iteration sends a distinct query.
func benchmarkEngineRoundTrip(b *testing.B, poolSize int, cacheBytes int64, repeatQuery bool) {
	b.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 20, Seed: 1})))
	srv := searchengine.NewServer(engine)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	p, err := proxy.New(proxy.Config{
		K:          2,
		Engines:    []proxy.EngineSpec{{Host: srv.Addr()}},
		Seed:       1,
		PoolSize:   poolSize,
		CacheBytes: cacheBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	ctx := context.Background()
	// Warm the history (fake sources) and, for the repeat benchmark, the
	// cache entry itself.
	if _, err := p.ServeQuery(ctx, "bench warm query"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := "bench warm query"
		if !repeatQuery {
			q = fmt.Sprintf("bench distinct query %d", i)
		}
		if _, err := p.ServeQuery(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := p.Stats()
	// A cache-hit run never reaches the pool after warmup, so only the
	// uncached pooled variant must demonstrate reuse.
	if poolSize > 0 && cacheBytes == 0 && st.PoolReuses == 0 {
		b.Fatal("pooled benchmark reused no connections")
	}
	if repeatQuery && cacheBytes > 0 && st.CacheHits == 0 {
		b.Fatal("cached benchmark hit nothing")
	}
}

// BenchmarkEngineRoundTripCold is the pre-scaling-layer baseline: a fresh
// socket dialled per request.
func BenchmarkEngineRoundTripCold(b *testing.B) {
	benchmarkEngineRoundTrip(b, -1, 0, false)
}

// BenchmarkEngineRoundTripPooled reuses enclave-held keep-alive
// connections across requests.
func BenchmarkEngineRoundTripPooled(b *testing.B) {
	benchmarkEngineRoundTrip(b, 8, 0, false)
}

// BenchmarkEngineRoundTripCached serves a repeated query from the
// in-enclave result cache (no engine round trip after the first).
func BenchmarkEngineRoundTripCached(b *testing.B) {
	benchmarkEngineRoundTrip(b, 8, 4<<20, true)
}
