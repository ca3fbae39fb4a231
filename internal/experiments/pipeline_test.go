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

// The acceptance bar of the pipeline layer: releasing the TCS during the
// engine round trip must demonstrably multiply throughput of a TCS-bound
// enclave (>= 1.4x here; measured ~6x — the slack keeps the test robust on
// loaded CI machines), hedging must cut the slow-upstream p99 (>= 1.5x
// here; measured ~2x), and the EPC invariant must hold at every phase.
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
	if res.Speedup < 1.4 {
		t.Errorf("async only %.2fx of sync (want >= 1.4x)", res.Speedup)
	}
	if res.P99Cut < 1.5 {
		t.Errorf("hedging cut p99 only %.2fx (no-hedge %v, hedge %v; want >= 1.5x)",
			res.P99Cut, res.NoHedgeP99, res.HedgeP99)
	}
	if res.HedgeWins == 0 {
		t.Error("no hedge ever won against the slow upstream")
	}
	if !res.InvariantOK {
		t.Error("EPC invariant broken during the pipeline ablation")
	}
}
