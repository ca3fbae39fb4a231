package experiments

import (
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

func TestRunAnswerValidation(t *testing.T) {
	if _, err := RunAnswer(AnswerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// The acceptance bar of the answer tier: on a repeat-heavy workload the
// in-enclave index must cut the upstream request rate at least 2x at equal
// or better p50, with the heap == history + cache + index invariant green
// across every run of the sweep.
func TestRunAnswerCutsUpstream(t *testing.T) {
	cfg := AnswerConfig{
		Workers:       8,
		Requests:      160,
		EngineService: 2 * time.Millisecond,
		RepeatRatios:  []float64{0.25, 0.9},
		IndexBytes:    4 << 20,
		IndexTTL:      time.Hour,
		DocsPerTopic:  10,
		Seed:          1,
	}
	if raceflag.Enabled {
		cfg.Requests = 80
	}
	res, err := RunAnswer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != len(cfg.RepeatRatios) {
		t.Fatalf("curve has %d points, want %d", len(res.Curve), len(cfg.RepeatRatios))
	}
	hot := res.Curve[len(res.Curve)-1]
	if hot.LocalHitRatio <= 0 {
		t.Fatalf("repeat-heavy run never hit the index: %+v", hot)
	}
	if hot.UpstreamCut < 2 {
		t.Errorf("upstream cut at ratio %.2f only %.2fx (baseline %d upstream requests, indexed %d; want >= 2x)",
			hot.RepeatRatio, hot.UpstreamCut, hot.BaselineUpstream, hot.IndexedUpstream)
	}
	if hot.IndexedP50 > hot.BaselineP50 {
		t.Errorf("p50 regressed with the index: baseline %v, indexed %v", hot.BaselineP50, hot.IndexedP50)
	}
	// More repeats must mean more local serving.
	if res.Curve[0].LocalHitRatio >= hot.LocalHitRatio {
		t.Errorf("local-hit ratio did not grow with repeat ratio: %.2f at %.2f vs %.2f at %.2f",
			res.Curve[0].LocalHitRatio, res.Curve[0].RepeatRatio, hot.LocalHitRatio, hot.RepeatRatio)
	}
	if !res.InvariantOK {
		t.Error("EPC invariant broken during the answer ablation")
	}
}
