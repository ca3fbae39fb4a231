// Command xsearch-bench regenerates every figure of the paper's evaluation
// (Figures 1, 3, 4, 5, 6, 7) plus the ablations called out in DESIGN.md,
// printing each as an aligned data table with a paper-vs-measured summary.
// Its output is the source of EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xsearch/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xsearch-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figs     = flag.String("figs", "1,3,4,5,6,7,ablations,anon,scaling,fanout,fleet,pipeline,autoscale,batch,answer,obs,tls,mux", "comma-separated figures to run")
		quick    = flag.Bool("quick", false, "scaled-down sizes (CI-friendly)")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		useHTTP  = flag.Bool("http", false, "Figure 5 over real loopback HTTP (bare-metal runs)")
		baseline = flag.String("baseline", "", "write the scaling ablation's numbers to this JSON file (perf regression baseline)")
	)
	flag.Parse()

	fixCfg := experiments.DefaultFixtureConfig()
	fixCfg.Seed = *seed
	if *quick {
		fixCfg.Users, fixCfg.MeanQueries, fixCfg.ActiveUsers = 80, 150, 50
	}
	fmt.Printf("# X-Search evaluation harness (seed=%d, quick=%t)\n", *seed, *quick)
	start := time.Now()
	fixture, err := experiments.NewFixture(fixCfg)
	if err != nil {
		return err
	}
	stats := fixture.Log.Stats()
	fmt.Printf("# dataset: %d records, %d users, %d unique queries (train %d / test %d)\n\n",
		stats.Records, stats.Users, stats.UniqueQueries,
		len(fixture.Train.Records), len(fixture.Test.Records))

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}

	if want["1"] {
		if err := runFig1(fixture, *quick, *seed); err != nil {
			return err
		}
	}
	if want["3"] {
		if err := runFig3(fixture, *quick); err != nil {
			return err
		}
	}
	if want["4"] {
		if err := runFig4(fixture, *quick, *seed); err != nil {
			return err
		}
	}
	if want["5"] {
		if err := runFig5(fixture, *quick, *seed, *useHTTP); err != nil {
			return err
		}
	}
	if want["6"] {
		if err := runFig6(*quick, *seed); err != nil {
			return err
		}
	}
	if want["7"] {
		if err := runFig7(fixture, *quick, *seed); err != nil {
			return err
		}
	}
	if want["ablations"] {
		if err := runAblations(fixture, *quick); err != nil {
			return err
		}
	}
	if want["anon"] {
		if err := runAnonBench(fixture, *quick); err != nil {
			return err
		}
	}
	var base *scalingBaseline
	if *baseline != "" {
		base = &scalingBaseline{}
		// Preload the existing baseline so running only one of the
		// scaling/fanout figures refreshes its half without zeroing the
		// other's committed numbers.
		if raw, err := os.ReadFile(*baseline); err == nil {
			_ = json.Unmarshal(raw, base)
		}
		base.GeneratedBy = "cmd/xsearch-bench -figs scaling,fanout,fleet,pipeline,autoscale,batch,answer,obs,tls,mux -baseline"
	}
	if want["scaling"] {
		if err := runScaling(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["fanout"] {
		if err := runFanout(*quick, base); err != nil {
			return err
		}
	}
	if want["fleet"] {
		if err := runFleetFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["pipeline"] {
		if err := runPipelineFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["autoscale"] {
		if err := runAutoscaleFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["batch"] {
		if err := runBatchFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["answer"] {
		if err := runAnswerFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["obs"] {
		if err := runObsFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["tls"] {
		if err := runTLSFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if want["mux"] {
		if err := runMuxFig(*quick, *seed, base); err != nil {
			return err
		}
	}
	if base != nil {
		raw, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baseline, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# baseline written to %s\n\n", *baseline)
	}
	fmt.Printf("# total harness time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFig1(f *experiments.Fixture, quick bool, seed uint64) error {
	cfg := experiments.DefaultFig1Config()
	cfg.Seed = seed
	if quick {
		cfg.Fakes = 500
	}
	res, err := experiments.RunFig1(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# median max-similarity: PEAS=%.3f TMN=%.3f GooPIR=%.3f X-Search=%.3f\n",
		res.PEASMedian, res.TMNMedian, res.GooPIRMedian, res.XSearchMedian)
	fmt.Printf("# paper: almost all PEAS/TMN fakes are 'original' (never appear in the log);\n")
	fmt.Printf("# X-Search fakes are verbatim past queries (similarity 1 by construction).\n\n")
	return nil
}

func runFig3(f *experiments.Fixture, quick bool) error {
	cfg := experiments.DefaultFig3Config()
	if quick {
		cfg.TestQueries = 250
	}
	res, err := experiments.RunFig3(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	improvement := 0.0
	n := 0
	for k := 1; k <= cfg.MaxK; k++ {
		if res.PEAS[k] > 0 {
			improvement += (res.PEAS[k] - res.XSearch[k]) / res.PEAS[k]
			n++
		}
	}
	if n > 0 {
		improvement = improvement / float64(n) * 100
	}
	fmt.Printf("# k=0 (unlinkability only) rate: %.3f  [paper: ~0.40]\n", res.RateAtK0)
	fmt.Printf("# k=1: X-Search=%.3f PEAS=%.3f      [paper: 0.16 vs ~0.20]\n",
		res.XSearch[1], res.PEAS[1])
	fmt.Printf("# mean X-Search improvement over PEAS (k>=1): %.1f%%  [paper: 23-35%%]\n\n", improvement)
	return nil
}

func runFig4(f *experiments.Fixture, quick bool, seed uint64) error {
	cfg := experiments.DefaultFig4Config()
	cfg.Seed = seed
	if quick {
		cfg.Queries, cfg.DocsPerTopic = 50, 100
	}
	res, err := experiments.RunFig4(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# k=2: precision=%.3f recall=%.3f  [paper: both > 0.80]\n\n",
		res.PrecisionAtK2, res.RecallAtK2)
	return nil
}

func runFig5(f *experiments.Fixture, quick bool, seed uint64, useHTTP bool) error {
	cfg := experiments.DefaultFig5Config()
	cfg.Seed = seed
	cfg.UseHTTP = useHTTP
	if quick {
		cfg.Duration = time.Second
		cfg.XSearchRates = []float64{1000, 5000, 10000, 20000, 30000}
		cfg.PEASRates = []float64{250, 1000, 2000, 4000}
		cfg.TorRates = []float64{50, 100, 200, 400, 800}
	}
	res, err := experiments.RunFig5(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# max rate with sub-second p50: X-Search=%.0f PEAS=%.0f Tor=%.0f req/s\n",
		res.MaxSubSecondRate["X-Search"], res.MaxSubSecondRate["PEAS"], res.MaxSubSecondRate["Tor"])
	fmt.Printf("# paper: X-Search 25,000; PEAS ~1,000; Tor ~100 (shape: XS >> PEAS >> Tor)\n\n")
	return nil
}

func runFig6(quick bool, seed uint64) error {
	cfg := experiments.DefaultFig6Config()
	cfg.Seed = seed
	if quick {
		cfg.MaxQueries = 200000
		cfg.Checkpoints = 20
	}
	res, err := experiments.RunFig6(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# %d queries stored in %.1f MB; fits 90 MB EPC: %t  [paper: >1M fit]\n\n",
		res.QueriesStored, float64(res.BytesAtMax)/(1<<20), res.FitsEPC)
	return nil
}

func runFig7(f *experiments.Fixture, quick bool, seed uint64) error {
	cfg := experiments.DefaultFig7Config()
	cfg.Seed = seed
	if quick {
		cfg.Queries = 50
		cfg.Scale = 0.1
	}
	res, err := experiments.RunFig7(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# medians (s): Direct=%.3f X-Search=%.3f Tor=%.3f  [paper: XS 0.577, Tor 1.06]\n",
		res.Median["Direct"], res.Median["X-Search"], res.Median["Tor"])
	fmt.Printf("# p99     (s): Direct=%.3f X-Search=%.3f Tor=%.3f  [paper: XS 0.873, Tor ~3]\n\n",
		res.P99["Direct"], res.P99["X-Search"], res.P99["Tor"])
	return nil
}

func runAblations(f *experiments.Fixture, quick bool) error {
	tests := 400
	if quick {
		tests = 200
	}
	realRate, synthRate, err := experiments.AblationFakeSource(f, 3, tests)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: fake source at k=3 — re-identification rate\n")
	fmt.Printf("real past queries (X-Search)    %.3f\n", realRate)
	fmt.Printf("co-occurrence synthetic (PEAS)  %.3f\n\n", synthRate)

	withF, withoutF, err := experiments.AblationFiltering(f, 3, 40, 20)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: Algorithm 2 filtering at k=3 — precision vs the\n")
	fmt.Printf("# unobfuscated query's results\n")
	fmt.Printf("with filtering     %.3f\n", withF)
	fmt.Printf("without filtering  %.3f\n\n", withoutF)

	pts, err := experiments.AblationHistorySize(f, 3, []int{100, 1000, 10000}, tests/2)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: history window size at k=3\n")
	fmt.Printf("capacity  bytes     reident_rate\n")
	for _, p := range pts {
		fmt.Printf("%-8d  %-8d  %.3f\n", p.Capacity, p.Bytes, p.Rate)
	}
	fmt.Println()

	withCost, withoutCost, err := experiments.AblationTransitionCost(3*time.Microsecond, 3000)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: enclave transition cost (3us per crossing, serial ecalls)\n")
	fmt.Printf("with cost     %.0f req/s\n", withCost)
	fmt.Printf("without cost  %.0f req/s\n\n", withoutCost)
	return nil
}

// scalingBaseline is the schema of BENCH_baseline.json: the scaling and
// fan-out ablations' headline numbers, committed so future PRs have a
// perf trajectory to compare against.
type scalingBaseline struct {
	GeneratedBy         string  `json:"generated_by"`
	Queries             int     `json:"queries"`
	Repeats             int     `json:"repeats"`
	ColdNsPerQuery      int64   `json:"cold_ns_per_query"`
	PooledNsPerQuery    int64   `json:"pooled_ns_per_query"`
	CachedHitNsPerQuery int64   `json:"cached_hit_ns_per_query"`
	ColdThroughputRPS   float64 `json:"cold_throughput_rps"`
	PooledThroughputRPS float64 `json:"pooled_throughput_rps"`
	CachedThroughputRPS float64 `json:"cached_throughput_rps"`
	PoolReuseRatio      float64 `json:"pool_reuse_ratio"`
	CacheHitRatio       float64 `json:"cache_hit_ratio"`
	CachedSpeedupVsCold float64 `json:"cached_speedup_vs_cold"`
	// Fan-out ablation: single-flight coalescing against a capacity-
	// limited engine, and failover throughput across the three phases
	// (both healthy / one dead / revived).
	CoalesceBaselineRPS float64 `json:"coalesce_baseline_rps"`
	CoalesceRPS         float64 `json:"coalesce_rps"`
	CoalesceSpeedup     float64 `json:"coalesce_speedup"`
	CoalesceRatio       float64 `json:"coalesce_ratio"`
	FanoutHealthyRPS    float64 `json:"fanout_healthy_rps"`
	FanoutDegradedRPS   float64 `json:"fanout_degraded_rps"`
	FanoutRecoveredRPS  float64 `json:"fanout_recovered_rps"`
	FanoutDegradedErrs  int     `json:"fanout_degraded_errors"`
	// Fleet ablation: throughput at 1/2/4 shards behind the session-
	// routing gateway, the 4-vs-1 speedup, and the kill-one-shard
	// availability run (errors must stay zero and the per-shard EPC
	// invariant heap == history + cache + index must hold).
	Fleet1ShardRPS   float64 `json:"fleet_1shard_rps"`
	Fleet2ShardRPS   float64 `json:"fleet_2shard_rps"`
	Fleet4ShardRPS   float64 `json:"fleet_4shard_rps"`
	FleetSpeedup     float64 `json:"fleet_speedup"`
	FleetKillRPS     float64 `json:"fleet_kill_rps"`
	FleetKillErrors  int     `json:"fleet_kill_errors"`
	FleetInvariantOK bool    `json:"fleet_epc_invariant_ok"`
	// Pipeline ablation: blocking vs async-ocall hot path under TCS
	// pressure, and hedging's p99 with one artificially slow upstream.
	PipelineSyncRPS     float64 `json:"pipeline_sync_rps"`
	PipelineAsyncRPS    float64 `json:"pipeline_async_rps"`
	PipelineSpeedup     float64 `json:"pipeline_speedup"`
	HedgeNoHedgeP99Ns   int64   `json:"hedge_nohedge_p99_ns"`
	HedgeP99Ns          int64   `json:"hedge_p99_ns"`
	HedgeP99Cut         float64 `json:"hedge_p99_cut"`
	HedgeWins           uint64  `json:"hedge_wins"`
	PipelineInvariantOK bool    `json:"pipeline_epc_invariant_ok"`
	// Autoscale ablation: the load ramp's shard trajectory, elastic peak
	// throughput against the statically provisioned max-size line, requests
	// lost across scale events (must be zero), scale-event counts, and the
	// EPC invariant on both sides of every sealed scale-down handoff.
	AutoscalePeakShards  int     `json:"autoscale_peak_shards"`
	AutoscaleFinalShards int     `json:"autoscale_final_shards"`
	AutoscaleRampMs      int64   `json:"autoscale_ramp_ms"`
	AutoscaleElasticRPS  float64 `json:"autoscale_elastic_peak_rps"`
	AutoscaleStaticRPS   float64 `json:"autoscale_static_peak_rps"`
	AutoscalePeakRatio   float64 `json:"autoscale_peak_ratio"`
	AutoscaleLost        int64   `json:"autoscale_lost"`
	AutoscaleScaleUps    uint64  `json:"autoscale_scale_ups"`
	AutoscaleScaleDowns  uint64  `json:"autoscale_scale_downs"`
	AutoscaleInvariantOK bool    `json:"autoscale_epc_invariant_ok"`
	// Batch ablation: vectorized ecall submission against the unbatched
	// async pipeline at the same TCS count and transition cost, plus the
	// full batch-size/latency curve.
	BatchUnbatchedRPS float64           `json:"batch_unbatched_rps"`
	BatchUnbatchedP50 int64             `json:"batch_unbatched_p50_ns"`
	BatchBestSpeedup  float64           `json:"batch_best_speedup"`
	BatchInvariantOK  bool              `json:"batch_epc_invariant_ok"`
	BatchCurve        []batchCurvePoint `json:"batch_curve"`
	// Answer-tier ablation: the in-enclave index against the no-index
	// baseline on the identical repeat-heavy workload, one curve point per
	// repeat ratio.
	AnswerBestUpstreamCut float64            `json:"answer_best_upstream_cut"`
	AnswerInvariantOK     bool               `json:"answer_epc_invariant_ok"`
	AnswerCurve           []answerCurvePoint `json:"answer_curve"`
	// Observability ablation: the identical async workload with the
	// observability layer off and on. Overhead must stay under 5%.
	ObsBaselineRPS float64  `json:"obs_baseline_rps"`
	ObsEnabledRPS  float64  `json:"obs_enabled_rps"`
	ObsOverhead    float64  `json:"obs_overhead"`
	ObsBaselineP50 int64    `json:"obs_baseline_p50_ns"`
	ObsEnabledP50  int64    `json:"obs_enabled_p50_ns"`
	ObsStages      []string `json:"obs_stages_covered"`
	ObsEvents      int      `json:"obs_events_logged"`
	ObsInvariantOK bool     `json:"obs_epc_invariant_ok"`
	// TLS transport ablation: pinned-root HTTPS on the blocking path vs
	// the async tls_step pipeline at the same TCS count, the trusted
	// session pool's hit rate, and hedging with both upstreams HTTPS.
	TLSSyncRPS           float64 `json:"tls_sync_rps"`
	TLSAsyncRPS          float64 `json:"tls_async_rps"`
	TLSSpeedup           float64 `json:"tls_speedup"`
	TLSSessionReuseRatio float64 `json:"tls_session_reuse_ratio"`
	TLSNoHedgeP99Ns      int64   `json:"tls_nohedge_p99_ns"`
	TLSHedgeP99Ns        int64   `json:"tls_hedge_p99_ns"`
	TLSHedgeP99Cut       float64 `json:"tls_hedge_p99_cut"`
	TLSHedgeWins         uint64  `json:"tls_hedge_wins"`
	TLSInvariantOK       bool    `json:"tls_epc_invariant_ok"`
	// Mux client-edge ablation: marginal bytes per attested session on a
	// dedicated conn vs the shared mux conn, mux secure-query p95 against
	// plain HTTP's, and the kill-mid-session resume accounting (lost and
	// re-attestations must be zero).
	MuxDedicatedBytesPerSession int64   `json:"mux_dedicated_bytes_per_session"`
	MuxSharedBytesPerSession    int64   `json:"mux_shared_bytes_per_session"`
	MuxSessionsAtEqualMem       float64 `json:"mux_sessions_at_equal_memory"`
	MuxHTTPP95Ns                int64   `json:"mux_http_p95_ns"`
	MuxP95Ns                    int64   `json:"mux_p95_ns"`
	MuxP95Ratio                 float64 `json:"mux_p95_ratio"`
	MuxKillLost                 int     `json:"mux_kill_lost"`
	MuxReconnects               uint64  `json:"mux_reconnects"`
	MuxResumes                  uint64  `json:"mux_resumes"`
	MuxReattestations           uint64  `json:"mux_reattestations"`
}

// batchCurvePoint is one committed point of the batch-size/latency curve.
type batchCurvePoint struct {
	BatchMax     int     `json:"batch_max"`
	RPS          float64 `json:"rps"`
	Speedup      float64 `json:"speedup"`
	P50Ns        int64   `json:"p50_ns"`
	P95Ns        int64   `json:"p95_ns"`
	OccupancyP50 float64 `json:"occupancy_p50"`
	OccupancyP95 float64 `json:"occupancy_p95"`
}

// answerCurvePoint is one committed point of the answer-tier curve.
type answerCurvePoint struct {
	RepeatRatio      float64 `json:"repeat_ratio"`
	LocalHitRatio    float64 `json:"local_hit_ratio"`
	BaselineUpstream uint64  `json:"baseline_upstream_reqs"`
	IndexedUpstream  uint64  `json:"indexed_upstream_reqs"`
	UpstreamCut      float64 `json:"upstream_cut"`
	BaselineP50Ns    int64   `json:"baseline_p50_ns"`
	IndexedP50Ns     int64   `json:"indexed_p50_ns"`
	BaselineP99Ns    int64   `json:"baseline_p99_ns"`
	IndexedP99Ns     int64   `json:"indexed_p99_ns"`
}

func runScaling(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultConnScalingConfig()
	cfg.Seed = seed
	if quick {
		cfg.Queries, cfg.Repeats = 32, 3
	}
	res, err := experiments.RunConnScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Scaling ablation: engine transport per proxy configuration\n")
	fmt.Printf("# (%d distinct queries x %d passes, loopback engine)\n", cfg.Queries, cfg.Repeats)
	fmt.Printf("%-14s  %-10s  %-12s  %-12s  %-12s  %-6s  %-6s\n",
		"variant", "req/s", "mean", "first-pass", "repeat-pass", "reuse", "hits")
	for _, v := range res.Variants {
		fmt.Printf("%-14s  %-10.0f  %-12v  %-12v  %-12v  %-6.2f  %-6.2f\n",
			v.Name, v.Throughput,
			v.MeanLatency.Round(time.Microsecond),
			v.FirstPassMean.Round(time.Microsecond),
			v.RepeatPassMean.Round(time.Microsecond),
			v.ReuseRatio, v.HitRatio)
	}
	fmt.Printf("# cached-hit latency %v vs cold %v: %.1fx speedup\n\n",
		res.CachedHitLatency.Round(time.Microsecond),
		res.ColdLatency.Round(time.Microsecond), res.CachedSpeedup)
	if base != nil {
		base.Queries = cfg.Queries
		base.Repeats = cfg.Repeats
		base.ColdNsPerQuery = res.Variants[0].MeanLatency.Nanoseconds()
		base.PooledNsPerQuery = res.Variants[1].MeanLatency.Nanoseconds()
		base.CachedHitNsPerQuery = res.CachedHitLatency.Nanoseconds()
		base.ColdThroughputRPS = res.Variants[0].Throughput
		base.PooledThroughputRPS = res.Variants[1].Throughput
		base.CachedThroughputRPS = res.Variants[2].Throughput
		base.PoolReuseRatio = res.Variants[1].ReuseRatio
		base.CacheHitRatio = res.Variants[2].HitRatio
		base.CachedSpeedupVsCold = res.CachedSpeedup
	}
	return nil
}

func runFanout(quick bool, base *scalingBaseline) error {
	cfg := experiments.DefaultFanoutConfig()
	if quick {
		cfg.CoalesceWorkers, cfg.CoalesceRequests = 16, 6
		cfg.FailoverRequests = 120
	}
	res, err := experiments.RunFanout(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Fan-out ablation A: single-flight coalescing, %d workers x %d identical\n",
		cfg.CoalesceWorkers, cfg.CoalesceRequests)
	fmt.Printf("# queries against a capacity-limited engine (%v serialized service time)\n", cfg.EngineService)
	fmt.Printf("%-16s  %-10s  %-12s\n", "variant", "req/s", "engine trips")
	fmt.Printf("%-16s  %-10.0f  %-12d\n", "no-coalesce", res.CoalesceBaselineRPS, res.EngineTripsBaseline)
	fmt.Printf("%-16s  %-10.0f  %-12d\n", "coalesce", res.CoalesceRPS, res.EngineTripsCoalesce)
	fmt.Printf("# coalescing: %.1fx throughput, %.0f%% of requests shared a flight\n\n",
		res.CoalesceSpeedup, res.CoalesceRatio*100)

	fmt.Printf("# Fan-out ablation B: two upstreams, one killed mid-run then revived\n")
	fmt.Printf("# (breaker: %d failure(s) to open, %v cooldown; %d requests per phase)\n",
		cfg.FailThreshold, cfg.Cooldown, cfg.FailoverRequests)
	fmt.Printf("%-16s  %-10s  %-8s\n", "phase", "req/s", "errors")
	fmt.Printf("%-16s  %-10.0f  %-8s\n", "both healthy", res.HealthyRPS,
		fmt.Sprintf("A/B %.0f/%.0f%%", res.HealthyShareA*100, res.HealthyShareB*100))
	fmt.Printf("%-16s  %-10.0f  %-8d\n", "one dead", res.DegradedRPS, res.DegradedErrors)
	fmt.Printf("%-16s  %-10.0f  %-8s\n", "revived", res.RecoveredRPS,
		fmt.Sprintf("B took %d", res.RevivedServed))
	fmt.Printf("# failover held %d/%d requests through the dead upstream; breaker re-probe\n",
		cfg.FailoverRequests-res.DegradedErrors, cfg.FailoverRequests)
	fmt.Printf("# returned the revived upstream to rotation\n\n")
	if base != nil {
		base.CoalesceBaselineRPS = res.CoalesceBaselineRPS
		base.CoalesceRPS = res.CoalesceRPS
		base.CoalesceSpeedup = res.CoalesceSpeedup
		base.CoalesceRatio = res.CoalesceRatio
		base.FanoutHealthyRPS = res.HealthyRPS
		base.FanoutDegradedRPS = res.DegradedRPS
		base.FanoutRecoveredRPS = res.RecoveredRPS
		base.FanoutDegradedErrs = res.DegradedErrors
	}
	return nil
}

func runFleetFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultFleetConfig()
	cfg.Seed = seed
	if quick {
		cfg.Requests, cfg.KillRequests = 240, 240
	}
	res, err := experiments.RunFleet(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Fleet ablation A: throughput vs shard count (%d workers, %d requests,\n",
		cfg.Workers, cfg.Requests)
	fmt.Printf("# %v engine service time, %d enclave threads per shard)\n",
		cfg.EngineService, cfg.TCSPerShard)
	fmt.Printf("%-8s  %-10s  %-10s  %-12s\n", "shards", "req/s", "speedup", "epc invariant")
	invariantOK := true
	for _, pt := range res.Points {
		speedup := 1.0
		if base := res.Points[0].Throughput; base > 0 {
			speedup = pt.Throughput / base
		}
		fmt.Printf("%-8d  %-10.0f  %-10.2f  %-12t\n", pt.Shards, pt.Throughput, speedup, pt.InvariantOK)
		invariantOK = invariantOK && pt.InvariantOK
	}
	fmt.Printf("# %d shards deliver %.1fx the single-enclave throughput\n\n",
		res.Points[len(res.Points)-1].Shards, res.Speedup)

	fmt.Printf("# Fleet ablation B: shard %d of %d killed mid-run (no drain, no warning)\n",
		res.KilledShard, cfg.KillShards)
	fmt.Printf("%-10s  %-10s  %-8s  %-12s\n", "requests", "req/s", "failed", "epc invariant")
	fmt.Printf("%-10d  %-10.0f  %-8d  %-12t\n", res.KillTotal, res.KillRPS, res.KillErrors, res.KillInvariantOK)
	fmt.Printf("# gateway failover held %d/%d requests through the crash\n\n",
		res.KillTotal-res.KillErrors, res.KillTotal)
	invariantOK = invariantOK && res.KillInvariantOK
	if base != nil {
		for _, pt := range res.Points {
			switch pt.Shards {
			case 1:
				base.Fleet1ShardRPS = pt.Throughput
			case 2:
				base.Fleet2ShardRPS = pt.Throughput
			case 4:
				base.Fleet4ShardRPS = pt.Throughput
			}
		}
		base.FleetSpeedup = res.Speedup
		base.FleetKillRPS = res.KillRPS
		base.FleetKillErrors = res.KillErrors
		base.FleetInvariantOK = invariantOK
	}
	return nil
}

func runPipelineFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultPipelineConfig()
	cfg.Seed = seed
	if quick {
		cfg.Requests, cfg.HedgeRequests = 200, 120
	}
	res, err := experiments.RunPipeline(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Pipeline ablation A: blocking vs async-ocall hot path, TCS-bound\n")
	fmt.Printf("# (%d enclave threads, %v engine service, %d workers x %d requests)\n",
		cfg.TCSCount, cfg.EngineService, cfg.Workers, cfg.Requests)
	fmt.Printf("%-14s  %-10s\n", "variant", "req/s")
	fmt.Printf("%-14s  %-10.0f\n", "sync (block)", res.SyncRPS)
	fmt.Printf("%-14s  %-10.0f\n", "async (rings)", res.AsyncRPS)
	fmt.Printf("# releasing the TCS during the engine round trip buys %.1fx throughput (peak %d requests in flight on %d threads)\n\n",
		res.Speedup, res.PeakInFlight, cfg.TCSCount)

	fmt.Printf("# Pipeline ablation B: hedged requests, upstreams %v (fast) and %v (slow),\n",
		cfg.FastService, cfg.SlowService)
	fmt.Printf("# hedge after %v, %d sequential requests\n", cfg.HedgeDelay, cfg.HedgeRequests)
	fmt.Printf("%-10s  %-12s  %-12s\n", "variant", "p50", "p99")
	fmt.Printf("%-10s  %-12v  %-12v\n", "no hedge",
		res.NoHedgeP50.Round(time.Microsecond), res.NoHedgeP99.Round(time.Microsecond))
	fmt.Printf("%-10s  %-12v  %-12v\n", "hedge",
		res.HedgeP50.Round(time.Microsecond), res.HedgeP99.Round(time.Microsecond))
	fmt.Printf("# hedging cut p99 %.1fx (%d hedges issued, %d won); EPC invariant ok: %t\n\n",
		res.P99Cut, res.HedgeAttempts, res.HedgeWins, res.InvariantOK)
	if base != nil {
		base.PipelineSyncRPS = res.SyncRPS
		base.PipelineAsyncRPS = res.AsyncRPS
		base.PipelineSpeedup = res.Speedup
		base.HedgeNoHedgeP99Ns = res.NoHedgeP99.Nanoseconds()
		base.HedgeP99Ns = res.HedgeP99.Nanoseconds()
		base.HedgeP99Cut = res.P99Cut
		base.HedgeWins = res.HedgeWins
		base.PipelineInvariantOK = res.InvariantOK
	}
	return nil
}

func runTLSFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultTLSConfig()
	cfg.Seed = seed
	if quick {
		cfg.Requests, cfg.HedgeRequests = 200, 120
	}
	res, err := experiments.RunTLS(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# TLS ablation A: in-enclave TLS, blocking vs async tls_step transport, TCS-bound\n")
	fmt.Printf("# (%d enclave threads, %v engine service, %d workers x %d requests, pinned-root HTTPS)\n",
		cfg.TCSCount, cfg.EngineService, cfg.Workers, cfg.Requests)
	fmt.Printf("%-14s  %-10s\n", "variant", "req/s")
	fmt.Printf("%-14s  %-10.0f\n", "sync (block)", res.SyncRPS)
	fmt.Printf("%-14s  %-10.0f\n", "async (rings)", res.AsyncRPS)
	fmt.Printf("# parking TLS flights between ciphertext steps buys %.1fx throughput; session reuse %.2f\n\n",
		res.Speedup, res.SessionReuseRatio)

	fmt.Printf("# TLS ablation B: hedged HTTPS requests, upstreams %v (fast) and %v (slow),\n",
		cfg.FastService, cfg.SlowService)
	fmt.Printf("# hedge after %v, %d sequential requests\n", cfg.HedgeDelay, cfg.HedgeRequests)
	fmt.Printf("%-10s  %-12s  %-12s\n", "variant", "p50", "p99")
	fmt.Printf("%-10s  %-12v  %-12v\n", "no hedge",
		res.NoHedgeP50.Round(time.Microsecond), res.NoHedgeP99.Round(time.Microsecond))
	fmt.Printf("%-10s  %-12v  %-12v\n", "hedge",
		res.HedgeP50.Round(time.Microsecond), res.HedgeP99.Round(time.Microsecond))
	fmt.Printf("# hedging cut p99 %.1fx (%d hedges issued, %d won); EPC invariant ok: %t\n\n",
		res.P99Cut, res.HedgeAttempts, res.HedgeWins, res.InvariantOK)
	if base != nil {
		base.TLSSyncRPS = res.SyncRPS
		base.TLSAsyncRPS = res.AsyncRPS
		base.TLSSpeedup = res.Speedup
		base.TLSSessionReuseRatio = res.SessionReuseRatio
		base.TLSNoHedgeP99Ns = res.NoHedgeP99.Nanoseconds()
		base.TLSHedgeP99Ns = res.HedgeP99.Nanoseconds()
		base.TLSHedgeP99Cut = res.P99Cut
		base.TLSHedgeWins = res.HedgeWins
		base.TLSInvariantOK = res.InvariantOK
	}
	return nil
}

func runMuxFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultMuxConfig()
	cfg.Seed = seed
	if quick {
		cfg.Sessions = 48
		cfg.Brokers, cfg.Queries, cfg.KillQueries = 4, 120, 60
	}
	res, err := experiments.RunMux(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Mux ablation A: gateway memory per attested session, dedicated conn vs\n")
	fmt.Printf("# shared mux conn (%d sessions per variant)\n", cfg.Sessions)
	fmt.Printf("%-16s  %-14s  %-10s\n", "edge", "bytes/session", "conns held")
	fmt.Printf("%-16s  %-14d  %-10d\n", "conn-per-session", res.DedicatedBytesPerSession, cfg.Sessions)
	fmt.Printf("%-16s  %-14d  %-10d\n", "mux (shared)", res.SharedBytesPerSession, res.ConnsHeld)
	fmt.Printf("# at equal memory the mux edge holds %.0fx the sessions\n\n", res.SessionsAtEqualMem)

	fmt.Printf("# Mux ablation B: secure-query latency, plain HTTP vs mux streams\n")
	fmt.Printf("# (%d attested brokers x %d queries, %v engine service)\n",
		cfg.Brokers, cfg.Queries, cfg.EngineService)
	fmt.Printf("%-10s  %-10s  %-12s  %-12s\n", "transport", "req/s", "p50", "p95")
	fmt.Printf("%-10s  %-10.0f  %-12v  %-12v\n", "http",
		res.HTTPRPS, res.HTTPP50.Round(time.Microsecond), res.HTTPP95.Round(time.Microsecond))
	fmt.Printf("%-10s  %-10.0f  %-12v  %-12v\n", "mux",
		res.MuxRPS, res.MuxP50.Round(time.Microsecond), res.MuxP95.Round(time.Microsecond))
	fmt.Printf("# mux p95 is %.2fx HTTP's (claim: within 1.20x)\n\n", res.P95Ratio)

	fmt.Printf("# Mux ablation C: transport conn killed under every live session at\n")
	fmt.Printf("# query %d of %d\n", cfg.KillQueries/3, cfg.KillQueries)
	fmt.Printf("%-12s  %-8s  %-12s  %-10s  %-14s\n", "queries", "lost", "reconnects", "resumes", "re-attestations")
	fmt.Printf("%-12d  %-8d  %-12d  %-10d  %-14d\n",
		res.KillQueries, res.Lost, res.Reconnects, res.Resumes, res.Reattestations)
	fmt.Printf("# every query completed on a re-dialed conn; the attested channels never\n")
	fmt.Printf("# re-keyed (their secrets live in the broker and the enclave, not the carrier)\n\n")
	if base != nil {
		base.MuxDedicatedBytesPerSession = res.DedicatedBytesPerSession
		base.MuxSharedBytesPerSession = res.SharedBytesPerSession
		base.MuxSessionsAtEqualMem = res.SessionsAtEqualMem
		base.MuxHTTPP95Ns = res.HTTPP95.Nanoseconds()
		base.MuxP95Ns = res.MuxP95.Nanoseconds()
		base.MuxP95Ratio = res.P95Ratio
		base.MuxKillLost = res.Lost
		base.MuxReconnects = res.Reconnects
		base.MuxResumes = res.Resumes
		base.MuxReattestations = res.Reattestations
	}
	return nil
}

func runAutoscaleFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultAutoscaleConfig()
	cfg.Seed = seed
	if quick {
		cfg.PeakWindow = 500 * time.Millisecond
	}
	res, err := experiments.RunAutoscale(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Autoscale ablation: load ramp %d→%d→%d shards (%d workers at peak,\n",
		cfg.MinShards, cfg.MaxShards, cfg.MinShards, cfg.Workers)
	fmt.Printf("# %v engine service, depth %d + %d TCS per shard, %v cooldown)\n",
		cfg.EngineService, cfg.PipelineDepth, cfg.TCSPerShard, cfg.ScaleCooldown)
	fmt.Printf("%-22s  %-10s  %-10s  %-8s\n", "fleet", "req/s", "shards", "lost")
	fmt.Printf("%-22s  %-10.0f  %-10d  %-8s\n", "static (provisioned)", res.StaticPeakRPS, cfg.MaxShards, "0")
	fmt.Printf("%-22s  %-10.0f  %-10d  %-8d\n", "elastic (autoscaled)", res.ElasticPeakRPS, res.PeakShards, res.Lost)
	fmt.Printf("# ramp 1→%d took %v (%d scale-ups); load off → back to %d shard(s) (%d scale-downs)\n",
		res.PeakShards, res.RampTime.Round(time.Millisecond), res.ScaleUps, res.FinalShards, res.ScaleDowns)
	fmt.Printf("# elastic peak holds %.0f%% of the static line; %d/%d requests lost;\n",
		res.PeakRatio*100, res.Lost, res.Issued)
	fmt.Printf("# EPC invariant on both sides of every handoff: %t\n\n", res.InvariantOK)
	if base != nil {
		base.AutoscalePeakShards = res.PeakShards
		base.AutoscaleFinalShards = res.FinalShards
		base.AutoscaleRampMs = res.RampTime.Milliseconds()
		base.AutoscaleElasticRPS = res.ElasticPeakRPS
		base.AutoscaleStaticRPS = res.StaticPeakRPS
		base.AutoscalePeakRatio = res.PeakRatio
		base.AutoscaleLost = res.Lost
		base.AutoscaleScaleUps = res.ScaleUps
		base.AutoscaleScaleDowns = res.ScaleDowns
		base.AutoscaleInvariantOK = res.InvariantOK
	}
	return nil
}

func runBatchFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultBatchConfig()
	cfg.Seed = seed
	if quick {
		cfg.Workers, cfg.Requests = 16, 200
		cfg.PipelineDepth = 32
		cfg.BatchSizes = []int{2, 8}
	}
	res, err := experiments.RunBatch(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Batch ablation: vectorized ecall submission vs unbatched async pipeline\n")
	fmt.Printf("# (%d enclave threads, %v per transition, %d workers x %d requests,\n",
		cfg.TCSCount, cfg.TransitionCost, cfg.Workers, cfg.Requests)
	fmt.Printf("# fill window %v)\n", cfg.BatchWindow)
	fmt.Printf("%-10s  %-10s  %-8s  %-10s  %-10s  %-14s\n",
		"batch max", "req/s", "speedup", "p50", "p95", "occupancy 50/95")
	fmt.Printf("%-10s  %-10.0f  %-8s  %-10v  %-10v  %-14s\n", "off",
		res.UnbatchedRPS, "1.00",
		res.UnbatchedP50.Round(time.Microsecond), res.UnbatchedP95.Round(time.Microsecond), "-")
	for _, pt := range res.Curve {
		fmt.Printf("%-10.0f  %-10.0f  %-8.2f  %-10v  %-10v  %-14s\n",
			pt.BatchMax, pt.RPS, pt.Speedup,
			pt.P50.Round(time.Microsecond), pt.P95.Round(time.Microsecond),
			fmt.Sprintf("%.0f/%.0f", pt.OccupancyP50, pt.OccupancyP95))
	}
	fmt.Printf("# group-commit batching buys %.1fx over the unbatched async hot path;\n", res.BestSpeedup)
	fmt.Printf("# EPC invariant across the sweep: %t\n\n", res.InvariantOK)
	if base != nil {
		base.BatchUnbatchedRPS = res.UnbatchedRPS
		base.BatchUnbatchedP50 = res.UnbatchedP50.Nanoseconds()
		base.BatchBestSpeedup = res.BestSpeedup
		base.BatchInvariantOK = res.InvariantOK
		base.BatchCurve = base.BatchCurve[:0]
		for _, pt := range res.Curve {
			base.BatchCurve = append(base.BatchCurve, batchCurvePoint{
				BatchMax:     int(pt.BatchMax),
				RPS:          pt.RPS,
				Speedup:      pt.Speedup,
				P50Ns:        pt.P50.Nanoseconds(),
				P95Ns:        pt.P95.Nanoseconds(),
				OccupancyP50: pt.OccupancyP50,
				OccupancyP95: pt.OccupancyP95,
			})
		}
	}
	return nil
}

func runAnswerFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultAnswerConfig()
	cfg.Seed = seed
	if quick {
		cfg.Workers, cfg.Requests = 8, 160
		cfg.RepeatRatios = []float64{0.25, 0.9}
	}
	res, err := experiments.RunAnswer(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Answer-tier ablation: in-enclave index vs no-index baseline on the\n")
	fmt.Printf("# identical repeat-heavy workload (%d workers x %d requests per run,\n",
		cfg.Workers, cfg.Requests)
	fmt.Printf("# %v engine service, %d B index)\n", cfg.EngineService, cfg.IndexBytes)
	fmt.Printf("%-8s  %-10s  %-20s  %-8s  %-18s  %-18s\n",
		"repeat", "local hit", "upstream base/idx", "cut", "p50 base/idx", "p99 base/idx")
	for _, pt := range res.Curve {
		fmt.Printf("%-8.2f  %-10.2f  %-20s  %-8.2f  %-18s  %-18s\n",
			pt.RepeatRatio, pt.LocalHitRatio,
			fmt.Sprintf("%d/%d", pt.BaselineUpstream, pt.IndexedUpstream),
			pt.UpstreamCut,
			fmt.Sprintf("%v/%v", pt.BaselineP50.Round(time.Microsecond), pt.IndexedP50.Round(time.Microsecond)),
			fmt.Sprintf("%v/%v", pt.BaselineP99.Round(time.Microsecond), pt.IndexedP99.Round(time.Microsecond)))
	}
	fmt.Printf("# the answer tier cuts upstream requests up to %.1fx with zero extra round trips;\n", res.BestUpstreamCut)
	fmt.Printf("# EPC invariant across the sweep: %t\n\n", res.InvariantOK)
	if base != nil {
		base.AnswerBestUpstreamCut = res.BestUpstreamCut
		base.AnswerInvariantOK = res.InvariantOK
		base.AnswerCurve = base.AnswerCurve[:0]
		for _, pt := range res.Curve {
			base.AnswerCurve = append(base.AnswerCurve, answerCurvePoint{
				RepeatRatio:      pt.RepeatRatio,
				LocalHitRatio:    pt.LocalHitRatio,
				BaselineUpstream: pt.BaselineUpstream,
				IndexedUpstream:  pt.IndexedUpstream,
				UpstreamCut:      pt.UpstreamCut,
				BaselineP50Ns:    pt.BaselineP50.Nanoseconds(),
				IndexedP50Ns:     pt.IndexedP50.Nanoseconds(),
				BaselineP99Ns:    pt.BaselineP99.Nanoseconds(),
				IndexedP99Ns:     pt.IndexedP99.Nanoseconds(),
			})
		}
	}
	return nil
}

func runObsFig(quick bool, seed uint64, base *scalingBaseline) error {
	cfg := experiments.DefaultObsConfig()
	cfg.Seed = seed
	if quick {
		cfg.Workers, cfg.Requests, cfg.Repeats = 16, 200, 2
		cfg.PipelineDepth = 32
	}
	res, err := experiments.RunObs(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Observability ablation: identical async workload, layer off vs on\n")
	fmt.Printf("# (%d workers x %d requests, best of %d, %v engine service)\n",
		cfg.Workers, cfg.Requests, cfg.Repeats, cfg.EngineService)
	fmt.Printf("%-14s  %-10s  %-10s  %-10s\n", "variant", "req/s", "p50", "p95")
	fmt.Printf("%-14s  %-10.0f  %-10v  %-10v\n", "obs off",
		res.BaselineRPS, res.BaselineP50.Round(time.Microsecond), res.BaselineP95.Round(time.Microsecond))
	fmt.Printf("%-14s  %-10.0f  %-10v  %-10v\n", "obs on",
		res.ObsRPS, res.ObsP50.Round(time.Microsecond), res.ObsP95.Round(time.Microsecond))
	fmt.Printf("# overhead %.1f%% (target < 5%%); stages covered: %s; %d events in the ring;\n",
		res.Overhead*100, strings.Join(res.StagesCovered, " → "), res.EventsLogged)
	fmt.Printf("# EPC invariant on both variants: %t\n\n", res.InvariantOK)
	if base != nil {
		base.ObsBaselineRPS = res.BaselineRPS
		base.ObsEnabledRPS = res.ObsRPS
		base.ObsOverhead = res.Overhead
		base.ObsBaselineP50 = res.BaselineP50.Nanoseconds()
		base.ObsEnabledP50 = res.ObsP50.Nanoseconds()
		base.ObsStages = res.StagesCovered
		base.ObsEvents = res.EventsLogged
		base.ObsInvariantOK = res.InvariantOK
	}
	return nil
}

func runAnonBench(f *experiments.Fixture, quick bool) error {
	cfg := experiments.DefaultAnonBenchConfig()
	if quick {
		cfg.Duration = 500 * time.Millisecond
	}
	res, err := experiments.RunAnonBench(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# knees (last sub-second p50, req/s): Dissent=%.0f RAC=%.0f Tor=%.0f X-Search=%.0f\n",
		res.Knee["Dissent"], res.Knee["RAC"], res.Knee["Tor"], res.Knee["X-Search"])
	fmt.Printf("# paper (§2.1.1 qualitative): Dissent < RAC < Tor << X-Search\n")
	fmt.Printf("# (WAN compressed %gx; ratios, not absolutes, are the claim)\n\n", 1/cfg.Scale)
	return nil
}
