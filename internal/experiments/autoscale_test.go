package experiments

import (
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

func TestRunAutoscaleValidation(t *testing.T) {
	if _, err := RunAutoscale(AutoscaleConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := RunAutoscale(AutoscaleConfig{MinShards: 3, MaxShards: 1, Workers: 4, PeakWindow: time.Second}); err == nil {
		t.Error("inverted shard range accepted")
	}
}

// The acceptance bar of the elasticity layer: under peak load the fleet
// must traverse the whole ramp (min→max and back), lose zero requests
// across every spawn/drain/retire event, and keep the EPC invariant green
// on both sides of each sealed handoff. Throughput ratios are reported,
// not asserted — loaded CI machines make absolute lines noisy, and the
// zero-loss/shape claims are the correctness bar.
func TestRunAutoscaleRampHoldsAllRequests(t *testing.T) {
	cfg := DefaultAutoscaleConfig()
	cfg.MaxShards = 2
	cfg.Workers = 8
	cfg.PeakWindow = 300 * time.Millisecond
	if raceflag.Enabled {
		cfg.PeakWindow = 200 * time.Millisecond
	}
	res, err := RunAutoscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakShards != cfg.MaxShards {
		t.Errorf("peak shards = %d, want %d", res.PeakShards, cfg.MaxShards)
	}
	if res.FinalShards != cfg.MinShards {
		t.Errorf("final shards = %d, want %d", res.FinalShards, cfg.MinShards)
	}
	if res.Lost != 0 {
		t.Errorf("%d of %d requests lost across scale events", res.Lost, res.Issued)
	}
	if res.ScaleUps == 0 || res.ScaleDowns == 0 {
		t.Errorf("scale events missing: ups=%d downs=%d", res.ScaleUps, res.ScaleDowns)
	}
	if !res.InvariantOK {
		t.Error("EPC invariant broken across a sealed scale-down handoff")
	}
	if res.ElasticPeakRPS <= 0 || res.StaticPeakRPS <= 0 {
		t.Errorf("no throughput measured: elastic=%.0f static=%.0f", res.ElasticPeakRPS, res.StaticPeakRPS)
	}
}
