package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
)

// PipelineConfig sizes the async-pipeline ablation. Half A measures the
// tentpole claim: with few enclave threads (TCS) and a realistic engine
// latency, the blocking hot path is TCS-bound (each request pins a thread
// for the full round trip) while the async pipeline releases the thread
// during the fetch — throughput should multiply. Half B measures hedging:
// with one artificially slow upstream in the rotation, the no-hedge p99 is
// the slow upstream's latency; hedged, the tail collapses to roughly
// hedge-delay + fast-upstream latency. The EPC invariant (enclave heap ==
// history + cache + index) is asserted after every phase.
type PipelineConfig struct {
	// Workers concurrent clients issue Requests distinct queries per
	// throughput run.
	Workers  int
	Requests int
	// EngineService is the engine's per-request latency for half A.
	EngineService time.Duration
	// TCSCount bounds each proxy enclave's concurrent ecalls — the
	// resource the async pipeline stops hoarding.
	TCSCount int
	// PipelineDepth is the async proxy's staged-request bound.
	PipelineDepth int
	// Half B: FastService/SlowService are the two upstreams' latencies,
	// HedgeDelay the configured hedge trigger, HedgeRequests the number
	// of sequential requests measured per variant.
	FastService   time.Duration
	SlowService   time.Duration
	HedgeDelay    time.Duration
	HedgeRequests int
	// DocsPerTopic sizes the engine corpus; Seed fixes randomness.
	DocsPerTopic int
	Seed         uint64
}

// DefaultPipelineConfig is the full-size ablation.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Workers:       16,
		Requests:      600,
		EngineService: 3 * time.Millisecond,
		TCSCount:      2,
		PipelineDepth: 64,
		FastService:   2 * time.Millisecond,
		SlowService:   25 * time.Millisecond,
		HedgeDelay:    5 * time.Millisecond,
		HedgeRequests: 300,
		DocsPerTopic:  20,
		Seed:          1,
	}
}

// PipelineResult carries the ablation's measurements.
type PipelineResult struct {
	// Half A: throughput of the blocking vs pipelined hot path under TCS
	// pressure, and the speedup.
	SyncRPS  float64
	AsyncRPS float64
	Speedup  float64
	// PeakInFlight is the most requests the async proxy held staged at
	// once (Stats().PipelineInFlight, sampled through the async run):
	// above TCSCount, the pipeline is doing what the blocking stage cannot.
	PeakInFlight int
	// Half B: query latency percentiles without and with hedging against
	// the fast/slow upstream pair, and the p99 improvement factor.
	NoHedgeP50 time.Duration
	NoHedgeP99 time.Duration
	HedgeP50   time.Duration
	HedgeP99   time.Duration
	P99Cut     float64
	// Hedge accounting from the hedged run.
	HedgeAttempts uint64
	HedgeWins     uint64
	// InvariantOK reports heap == history + cache + index after every phase.
	InvariantOK bool
}

// RunPipeline measures the async pipeline and hedging end to end.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	if cfg.Workers <= 0 || cfg.Requests <= 0 || cfg.HedgeRequests <= 0 {
		return nil, fmt.Errorf("pipeline: need workers and requests")
	}
	res := &PipelineResult{InvariantOK: true}
	if err := runPipelineThroughput(cfg, res); err != nil {
		return nil, fmt.Errorf("pipeline throughput: %w", err)
	}
	if err := runPipelineHedge(cfg, res); err != nil {
		return nil, fmt.Errorf("pipeline hedge: %w", err)
	}
	return res, nil
}

// pipelineEngine starts a loopback engine with a fixed per-request
// service latency (applied concurrently: the engine is not the
// bottleneck, the proxy is the system under test).
func pipelineEngine(cfg PipelineConfig, service time.Duration) (*searchengine.Server, error) {
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{
			DocsPerTopic: cfg.DocsPerTopic,
			Seed:         cfg.Seed,
		})))
	srv := searchengine.NewServer(engine)
	if service > 0 {
		srv.DelayFn = func() time.Duration { return service }
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

func shutdownServer(srv *searchengine.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

func shutdownProxy(p *proxy.Proxy) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = p.Shutdown(ctx)
}

// proxyInvariantOK checks heap == history + cache + index on one node.
func proxyInvariantOK(p *proxy.Proxy) bool {
	s := p.Stats()
	return s.Enclave.HeapBytes == s.HistoryB+s.CacheB+s.IndexB
}

// drivePipeline issues total distinct queries from workers concurrent
// clients, optionally recording per-request latency.
func drivePipeline(p *proxy.Proxy, workers, total int, label string, hist *metrics.Histogram) (time.Duration, error) {
	return driveQueries(p, workers, total, hist, func(i int) string {
		return fmt.Sprintf("%s query %d", label, i)
	})
}

// driveQueries issues total queries derived by queryFor from workers
// concurrent clients, optionally recording per-request latency.
func driveQueries(p *proxy.Proxy, workers, total int, hist *metrics.Histogram, queryFor func(int) string) (time.Duration, error) {
	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				q := queryFor(int(i))
				reqStart := time.Now()
				if _, err := p.ServeQuery(context.Background(), q); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				if hist != nil {
					hist.Record(time.Since(reqStart))
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// runPipelineThroughput is half A: identical workload, blocking vs
// pipelined hot path, both TCS-bound.
func runPipelineThroughput(cfg PipelineConfig, res *PipelineResult) error {
	srv, err := pipelineEngine(cfg, cfg.EngineService)
	if err != nil {
		return err
	}
	defer shutdownServer(srv)

	for _, async := range []bool{false, true} {
		pc := proxy.Config{
			K:             2,
			Engines:       []proxy.EngineSpec{{Host: srv.Addr()}},
			Seed:          cfg.Seed,
			EnclaveConfig: enclave.Config{TCSCount: cfg.TCSCount},
		}
		if async {
			pc.AsyncOcalls = true
			pc.PipelineDepth = cfg.PipelineDepth
		}
		p, err := proxy.New(pc)
		if err != nil {
			return err
		}
		// Warm the history so obfuscation has fakes to draw.
		for i := 0; i < 4; i++ {
			if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("warm %d", i)); err != nil {
				shutdownProxy(p)
				return err
			}
		}
		label := "sync"
		if async {
			label = "async"
		}
		// Both halves carry the sampler; a blocking proxy stages nothing.
		stopSampling := samplePeakInFlight(p, &res.PeakInFlight)
		elapsed, err := drivePipeline(p, cfg.Workers, cfg.Requests, label, nil)
		stopSampling()
		if err != nil {
			shutdownProxy(p)
			return err
		}
		rps := float64(cfg.Requests) / elapsed.Seconds()
		res.InvariantOK = res.InvariantOK && proxyInvariantOK(p)
		shutdownProxy(p)
		if async {
			res.AsyncRPS = rps
		} else {
			res.SyncRPS = rps
		}
	}
	if res.SyncRPS > 0 {
		res.Speedup = res.AsyncRPS / res.SyncRPS
	}
	return nil
}

// samplePeakInFlight polls p's staged-request gauge until the returned stop
// is called, leaving the maximum it saw in *peak.
func samplePeakInFlight(p *proxy.Proxy, peak *int) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			*peak = max(*peak, p.Stats().PipelineInFlight)
			select {
			case <-quit:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return func() { close(quit); <-done }
}

// runPipelineHedge is half B: a fast and an artificially slow upstream in
// one rotation; sequential requests alternate primaries (the weighted
// ring), so without hedging ~half the requests eat the slow upstream's
// full latency and the p99 sits there. With hedging, a slow primary is
// raced after HedgeDelay and the tail collapses.
func runPipelineHedge(cfg PipelineConfig, res *PipelineResult) error {
	fast, err := pipelineEngine(cfg, cfg.FastService)
	if err != nil {
		return err
	}
	defer shutdownServer(fast)
	slow, err := pipelineEngine(cfg, cfg.SlowService)
	if err != nil {
		return err
	}
	defer shutdownServer(slow)

	for _, hedge := range []bool{false, true} {
		pc := proxy.Config{
			K:           2,
			Engines:     []proxy.EngineSpec{{Host: slow.Addr()}, {Host: fast.Addr()}},
			Seed:        cfg.Seed,
			AsyncOcalls: true,
		}
		if hedge {
			pc.HedgeDelay = cfg.HedgeDelay
			pc.HedgeMax = 1
		}
		p, err := proxy.New(pc)
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("hedge warm %d", i)); err != nil {
				shutdownProxy(p)
				return err
			}
		}
		hist := metrics.NewHistogram()
		label := "nohedge"
		if hedge {
			label = "hedge"
		}
		// Sequential (one worker): the tail must come from the slow
		// upstream, not from queueing.
		if _, err := drivePipeline(p, 1, cfg.HedgeRequests, label, hist); err != nil {
			shutdownProxy(p)
			return err
		}
		snap := hist.Snapshot()
		st := p.Stats()
		res.InvariantOK = res.InvariantOK && proxyInvariantOK(p)
		shutdownProxy(p)
		if hedge {
			res.HedgeP50, res.HedgeP99 = snap.P50, snap.P99
			res.HedgeAttempts, res.HedgeWins = st.HedgeAttempts, st.HedgeWins
		} else {
			res.NoHedgeP50, res.NoHedgeP99 = snap.P50, snap.P99
		}
	}
	if res.HedgeP99 > 0 {
		res.P99Cut = float64(res.NoHedgeP99) / float64(res.HedgeP99)
	}
	return nil
}
