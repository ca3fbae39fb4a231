package experiments

import (
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

func TestRunBatchValidation(t *testing.T) {
	if _, err := RunBatch(BatchConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// The acceptance bar of the batching layer, as behaviour: with transitions
// priced and TCS slots scarce, vectorized ecalls cross the boundary fewer
// times per request than the unbatched async pipeline (as the Fig. 5/7
// shape tests already bar), batches really coalesce, and the EPC invariant
// holds across every run of the sweep. The throughput ratio that buys is
// logged, not barred: a wall-clock bar from one short run misses about
// every second time on a shared 2-vCPU host.
func TestRunBatchSpeedsUp(t *testing.T) {
	cfg := BatchConfig{
		Workers:        16,
		Requests:       200,
		EngineService:  time.Millisecond,
		TCSCount:       2,
		TransitionCost: 200 * time.Microsecond,
		PipelineDepth:  32,
		BatchWindow:    2 * time.Millisecond,
		BatchSizes:     []int{2, 8},
		DocsPerTopic:   10,
		Seed:           1,
	}
	if raceflag.Enabled {
		cfg.Requests = 100
	}
	res, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnbatchedRPS <= 0 {
		t.Fatalf("no baseline throughput: %.0f", res.UnbatchedRPS)
	}
	var deep *BatchPoint
	for i := range res.Curve {
		if res.Curve[i].BatchMax >= 8 {
			deep = &res.Curve[i]
		}
	}
	if deep == nil {
		t.Fatal("sweep produced no BatchMax >= 8 point")
	}
	t.Logf("batching at max %v: %.2fx of unbatched async (baseline %.0f rps, batched %.0f rps)",
		deep.BatchMax, deep.Speedup, res.UnbatchedRPS, deep.RPS)
	if deep.ECallsPerRequest >= res.UnbatchedECallsPerRequest {
		t.Errorf("batching at max %v crossed the boundary %.2f times per request, unbatched %.2f: nothing was amortized",
			deep.BatchMax, deep.ECallsPerRequest, res.UnbatchedECallsPerRequest)
	}
	if deep.OccupancyP95 < 2 {
		t.Errorf("request-batch occupancy p95 = %v: batches never actually coalesced", deep.OccupancyP95)
	}
	if !res.InvariantOK {
		t.Error("EPC invariant broken during the batch ablation")
	}
}
