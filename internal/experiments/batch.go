package experiments

import (
	"context"
	"fmt"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/proxy"
)

// BatchConfig sizes the ecall-batching ablation. The measured claim: when
// enclave transitions carry a real cost (EENTER/EEXIT spin) and TCS slots
// are scarce, the per-request boundary crossings — one request ecall and
// one resume ecall per query — become the hot path's fixed tax, and
// vectorizing them through the group-commit batcher divides that tax by
// the batch occupancy. The ablation drives an identical concurrent
// workload through the unbatched async pipeline and then through the
// batched seam at increasing BatchMax, recording the throughput/latency
// curve that trades batching window against transition amortization.
type BatchConfig struct {
	// Workers concurrent clients issue Requests distinct queries per run.
	Workers  int
	Requests int
	// EngineService is the loopback engine's per-request latency (applied
	// concurrently; the proxy, not the engine, is the system under test).
	EngineService time.Duration
	// TCSCount bounds concurrent ecalls and TransitionCost prices each
	// boundary crossing — together they make transitions the contended
	// resource batching amortizes.
	TCSCount       int
	TransitionCost time.Duration
	// PipelineDepth is the async admission bound (shared by every run).
	PipelineDepth int
	// BatchWindow is the group-commit fill window for the batched runs
	// (zero uses the proxy default). The ablation widens it past the
	// default: on few cores the closed-loop workers wake staggered, and a
	// window shorter than their wake spacing degenerates every batch to a
	// singleton.
	BatchWindow time.Duration
	// BatchSizes is the BatchMax sweep; each must be >= 2 and <=
	// PipelineDepth.
	BatchSizes []int
	// DocsPerTopic sizes the engine corpus; Seed fixes randomness.
	DocsPerTopic int
	Seed         uint64
}

// DefaultBatchConfig is the full-size ablation.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		Workers:        32,
		Requests:       800,
		EngineService:  time.Millisecond,
		TCSCount:       2,
		TransitionCost: 200 * time.Microsecond,
		PipelineDepth:  64,
		BatchWindow:    2 * time.Millisecond,
		BatchSizes:     []int{2, 4, 8, 16, 32},
		DocsPerTopic:   20,
		Seed:           1,
	}
}

// BatchPoint is one point of the batch-size/latency curve.
type BatchPoint struct {
	BatchMax float64
	RPS      float64
	// Speedup is RPS over the unbatched async baseline.
	Speedup float64
	// Request latency percentiles — the cost side of the trade: deeper
	// batches amortize more transitions but hold early arrivals for the
	// window.
	P50 time.Duration
	P95 time.Duration
	// Request-batch occupancy percentiles from the proxy's own gauges:
	// how full the batches actually ran at this load.
	OccupancyP50 float64
	OccupancyP95 float64
	// ECallsPerRequest is enclave crossings (request + resume + control)
	// per served request: what batching amortizes, independent of the
	// host's clock.
	ECallsPerRequest float64
}

// BatchResult carries the ablation's measurements.
type BatchResult struct {
	// UnbatchedRPS is the async-pipeline baseline at the same TCS count
	// and transition cost, with batching off.
	UnbatchedRPS float64
	UnbatchedP50 time.Duration
	UnbatchedP95 time.Duration
	// UnbatchedECallsPerRequest is the baseline's crossings per request
	// (≈ 2: one request ecall, one resume).
	UnbatchedECallsPerRequest float64
	// Curve is one point per configured BatchMax.
	Curve []BatchPoint
	// BestSpeedup is the curve's best throughput gain over the baseline.
	BestSpeedup float64
	// InvariantOK reports heap == history + cache + index after every run.
	InvariantOK bool
}

// RunBatch measures the batched ecall seam against the unbatched async
// pipeline.
func RunBatch(cfg BatchConfig) (*BatchResult, error) {
	if cfg.Workers <= 0 || cfg.Requests <= 0 || len(cfg.BatchSizes) == 0 {
		return nil, fmt.Errorf("batch: need workers, requests and a BatchMax sweep")
	}
	srv, err := pipelineEngine(PipelineConfig{
		DocsPerTopic: cfg.DocsPerTopic,
		Seed:         cfg.Seed,
	}, cfg.EngineService)
	if err != nil {
		return nil, err
	}
	defer shutdownServer(srv)

	res := &BatchResult{InvariantOK: true}
	runOne := func(batchMax int) (BatchPoint, error) {
		pc := proxy.Config{
			K:             2,
			Engines:       []proxy.EngineSpec{{Host: srv.Addr()}},
			Seed:          cfg.Seed,
			AsyncOcalls:   true,
			PipelineDepth: cfg.PipelineDepth,
			BatchMax:      batchMax,
			EnclaveConfig: enclave.Config{
				TCSCount:       cfg.TCSCount,
				TransitionCost: cfg.TransitionCost,
			},
		}
		if batchMax > 0 {
			pc.BatchWindow = cfg.BatchWindow
		}
		p, err := proxy.New(pc)
		if err != nil {
			return BatchPoint{}, err
		}
		defer shutdownProxy(p)
		// Warm the history so obfuscation has fakes to draw.
		for i := 0; i < 4; i++ {
			if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("batch warm %d", i)); err != nil {
				return BatchPoint{}, err
			}
		}
		warmECalls := p.Stats().Enclave.ECalls
		hist := metrics.NewHistogram()
		label := fmt.Sprintf("batch%d", batchMax)
		elapsed, err := drivePipeline(p, cfg.Workers, cfg.Requests, label, hist)
		if err != nil {
			return BatchPoint{}, err
		}
		snap := hist.Snapshot()
		st := p.Stats()
		res.InvariantOK = res.InvariantOK && proxyInvariantOK(p)
		return BatchPoint{
			BatchMax:         float64(batchMax),
			RPS:              float64(cfg.Requests) / elapsed.Seconds(),
			P50:              snap.P50,
			P95:              snap.P95,
			OccupancyP50:     st.BatchOccupancyP50,
			OccupancyP95:     st.BatchOccupancyP95,
			ECallsPerRequest: float64(st.Enclave.ECalls-warmECalls) / float64(cfg.Requests),
		}, nil
	}

	base, err := runOne(0) // unbatched async baseline
	if err != nil {
		return nil, fmt.Errorf("batch baseline: %w", err)
	}
	res.UnbatchedRPS, res.UnbatchedP50, res.UnbatchedP95 = base.RPS, base.P50, base.P95
	res.UnbatchedECallsPerRequest = base.ECallsPerRequest

	for _, size := range cfg.BatchSizes {
		pt, err := runOne(size)
		if err != nil {
			return nil, fmt.Errorf("batch max %d: %w", size, err)
		}
		if res.UnbatchedRPS > 0 {
			pt.Speedup = pt.RPS / res.UnbatchedRPS
		}
		if pt.Speedup > res.BestSpeedup {
			res.BestSpeedup = pt.Speedup
		}
		res.Curve = append(res.Curve, pt)
	}
	return res, nil
}
