package experiments

import (
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

func TestRunPipelineValidation(t *testing.T) {
	if _, err := RunPipeline(PipelineConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// The acceptance bar of the pipeline layer, as behaviour: releasing the TCS
// during the engine round trip lets a TCS-bound enclave hold more requests
// in flight than it has threads, hedges are issued against the slow
// upstream and win, and the EPC invariant holds at every phase.
func TestRunPipelineSpeedsUpAndCutsTail(t *testing.T) {
	cfg := PipelineConfig{
		Workers:       8,
		Requests:      120,
		EngineService: 2 * time.Millisecond,
		TCSCount:      2,
		PipelineDepth: 32,
		FastService:   time.Millisecond,
		SlowService:   20 * time.Millisecond,
		HedgeDelay:    4 * time.Millisecond,
		HedgeRequests: 80,
		DocsPerTopic:  10,
		Seed:          1,
	}
	if raceflag.Enabled {
		cfg.Requests, cfg.HedgeRequests = 60, 40
	}
	res, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncRPS <= 0 || res.AsyncRPS <= 0 {
		t.Fatalf("no throughput: sync=%.0f async=%.0f", res.SyncRPS, res.AsyncRPS)
	}
	// The wall-clock ratios are reported, not barred (a 2-vCPU host misses
	// any fixed bar some of the time); the bar is the behaviour behind them.
	t.Logf("async %.2fx of sync; hedging cut p99 %.2fx (no-hedge %v, hedge %v)",
		res.Speedup, res.P99Cut, res.NoHedgeP99, res.HedgeP99)
	if res.PeakInFlight <= cfg.TCSCount {
		t.Errorf("async proxy never held more than %d requests in flight on %d TCS: the fetch still pins the thread",
			res.PeakInFlight, cfg.TCSCount)
	}
	if res.HedgeAttempts == 0 {
		t.Error("no hedge was ever issued against the slow upstream")
	}
	if res.HedgeWins == 0 {
		t.Error("no hedge ever won against the slow upstream")
	}
	if !res.InvariantOK {
		t.Error("EPC invariant broken during the pipeline ablation")
	}
}
