package experiments

import (
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

func TestRunFleetValidation(t *testing.T) {
	if _, err := RunFleet(FleetConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := RunFleet(FleetConfig{ShardCounts: []int{1}, Workers: 0, Requests: 10}); err == nil {
		t.Error("zero workers accepted")
	}
}

// The acceptance bar of the fleet layer: added shards must demonstrably
// scale throughput of a concurrency-bound enclave (2 shards >= 1.4x one;
// measured ~1.9x — the slack keeps the test robust on loaded CI machines),
// a shard crash mid-run must lose zero requests, and every live shard must
// satisfy heap == history + cache + index at each phase boundary.
func TestRunFleetScalesAndSurvivesKill(t *testing.T) {
	cfg := FleetConfig{
		ShardCounts:   []int{1, 2},
		Workers:       8,
		Requests:      160,
		EngineService: 2 * time.Millisecond,
		TCSPerShard:   2,
		KillShards:    3,
		KillRequests:  160,
		DocsPerTopic:  10,
		Seed:          1,
	}
	if raceflag.Enabled {
		cfg.Requests, cfg.KillRequests = 80, 80
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if !pt.InvariantOK {
			t.Errorf("EPC invariant broken at %d shards", pt.Shards)
		}
		if pt.Throughput <= 0 {
			t.Errorf("no throughput at %d shards", pt.Shards)
		}
	}
	if res.Speedup < 1.4 {
		t.Errorf("2 shards only %.2fx of 1 shard (want >= 1.4x)", res.Speedup)
	}
	if res.KillErrors != 0 {
		t.Errorf("kill run lost %d/%d requests", res.KillErrors, res.KillTotal)
	}
	if !res.KillInvariantOK {
		t.Error("EPC invariant broken after the kill run")
	}
}
