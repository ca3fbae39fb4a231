package fleet

import (
	"context"
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/proxy"
	"xsearch/internal/simattack"
)

// TestDecideScaleTable drives the pure decision core through every policy
// behaviour — thresholds, hysteresis, cooldown, min/max clamps, the
// k-anonymity floor, and coldest-shard selection — without touching an
// enclave.
func TestDecideScaleTable(t *testing.T) {
	pol := AutoscalePolicy{
		UpOccupancy:   0.75,
		DownOccupancy: 0.25,
		UpLatencyP95:  100 * time.Millisecond,
		UpEPCFraction: 0.85,
		Interval:      50 * time.Millisecond,
		Cooldown:      time.Second,
	}
	// A quiet shard: nothing near any threshold.
	quiet := func(idx int) ShardLoad {
		return ShardLoad{Index: idx, Occupancy: 0.1, LatencyP95: 10 * time.Millisecond,
			EPCFraction: 0.1, HistoryLen: 100, HistoryCapacity: 100000, Sessions: 2}
	}

	cases := []struct {
		name       string
		policy     AutoscalePolicy
		sinceLast  time.Duration
		loads      []ShardLoad
		min, max   int
		wantAction ScaleAction
		wantTarget int
		wantReason string // substring
	}{
		{
			name: "no live shards", policy: pol, sinceLast: time.Hour,
			loads: nil, min: 1, max: 4,
			wantAction: ScaleNone, wantReason: "no live shards",
		},
		{
			name: "cooldown blocks even under pressure", policy: pol, sinceLast: 100 * time.Millisecond,
			loads: []ShardLoad{{Index: 0, Occupancy: 1.0}}, min: 1, max: 4,
			wantAction: ScaleNone, wantReason: "cooldown",
		},
		{
			name: "occupancy breach scales up", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), {Index: 1, Occupancy: 0.8, HistoryCapacity: 100000}}, min: 1, max: 4,
			wantAction: ScaleUp, wantReason: "occupancy",
		},
		{
			name: "p95 breach scales up", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.LatencyP95 = 150 * time.Millisecond
				return l
			}()}, min: 1, max: 4,
			wantAction: ScaleUp, wantReason: "p95",
		},
		{
			name: "latency signal off ignores p95", policy: func() AutoscalePolicy {
				p := pol
				p.UpLatencyP95 = 0
				return p
			}(), sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.LatencyP95 = time.Hour
				return l
			}()}, min: 1, max: 4,
			// The huge p95 neither triggers scale-up nor blocks the
			// idle-fleet scale-down: the signal is fully off.
			wantAction: ScaleDown, wantReason: "retiring coldest",
		},
		{
			name: "epc pressure scales up", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.EPCFraction = 0.9
				return l
			}()}, min: 1, max: 4,
			wantAction: ScaleUp, wantReason: "epc pressure",
		},
		{
			name: "max clamp refuses scale-up", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{{Index: 0, Occupancy: 1.0, HistoryCapacity: 100000}, {Index: 1, Occupancy: 1.0, HistoryCapacity: 100000}}, min: 1, max: 2,
			wantAction: ScaleNone, wantReason: "at max",
		},
		{
			name: "hysteresis band holds steady", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.Occupancy = 0.5 // between down (0.25) and up (0.75)
				return l
			}()}, min: 1, max: 4,
			wantAction: ScaleNone, wantReason: "steady",
		},
		{
			name: "all idle scales down", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), quiet(1)}, min: 1, max: 4,
			wantAction: ScaleDown, wantTarget: 0, wantReason: "retiring coldest",
		},
		{
			name: "min clamp refuses scale-down", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), quiet(1)}, min: 2, max: 4,
			wantAction: ScaleNone, wantReason: "at min",
		},
		{
			name: "lingering p95 tail blocks scale-down", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.LatencyP95 = 60 * time.Millisecond // above UpLatencyP95/2
				return l
			}()}, min: 1, max: 4,
			wantAction: ScaleNone, wantReason: "p95",
		},
		{
			name: "epc pressure above the up bound scales up even when idle", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.Occupancy = 0.0
				l.EPCFraction = 0.9
				return l
			}()}, min: 1, max: 4,
			// EPC pressure is ALSO an up signal, so with headroom it wins.
			wantAction: ScaleUp, wantReason: "epc pressure",
		},
		{
			name: "epc hysteresis blocks scale-down below the up bound", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{quiet(0), func() ShardLoad {
				l := quiet(1)
				l.EPCFraction = 0.5 // between up/2 (0.425) and up (0.85)
				return l
			}()}, min: 1, max: 4,
			// Idle, but a merge could roughly double a window's heap and
			// breach the up bound — the fleet must not flap back up.
			wantAction: ScaleNone, wantReason: "epc",
		},
		{
			name: "k-anonymity floor refuses overflowing merge", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{
				{Index: 0, Occupancy: 0.1, HistoryLen: 600, HistoryCapacity: 1000, Sessions: 0},
				{Index: 1, Occupancy: 0.1, HistoryLen: 700, HistoryCapacity: 1000, Sessions: 3},
			}, min: 1, max: 4,
			wantAction: ScaleNone, wantReason: "k-anonymity floor",
		},
		{
			name: "merge that fits passes the floor", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{
				{Index: 0, Occupancy: 0.1, HistoryLen: 200, HistoryCapacity: 1000, Sessions: 0},
				{Index: 1, Occupancy: 0.1, HistoryLen: 700, HistoryCapacity: 1000, Sessions: 3},
			}, min: 1, max: 4,
			wantAction: ScaleDown, wantTarget: 0, wantReason: "retiring coldest",
		},
		{
			name: "coldest = fewest sessions", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{
				{Index: 0, Occupancy: 0.05, HistoryLen: 10, HistoryCapacity: 100000, Sessions: 5},
				{Index: 1, Occupancy: 0.2, HistoryLen: 500, HistoryCapacity: 100000, Sessions: 1},
			}, min: 1, max: 4,
			wantAction: ScaleDown, wantTarget: 1,
		},
		{
			name: "sessions tie breaks on history then index", policy: pol, sinceLast: time.Hour,
			loads: []ShardLoad{
				{Index: 0, Occupancy: 0.1, HistoryLen: 500, HistoryCapacity: 100000, Sessions: 1},
				{Index: 1, Occupancy: 0.1, HistoryLen: 100, HistoryCapacity: 100000, Sessions: 1},
				{Index: 2, Occupancy: 0.1, HistoryLen: 100, HistoryCapacity: 100000, Sessions: 1},
			}, min: 1, max: 4,
			wantAction: ScaleDown, wantTarget: 1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := DecideScale(tc.policy, tc.sinceLast, tc.loads, tc.min, tc.max)
			if d.Action != tc.wantAction {
				t.Fatalf("action = %v, want %v (reason %q)", d.Action, tc.wantAction, d.Reason)
			}
			if d.Action == ScaleDown && d.Target != tc.wantTarget {
				t.Fatalf("target = %d, want %d (reason %q)", d.Target, tc.wantTarget, d.Reason)
			}
			if tc.wantReason != "" && !strings.Contains(d.Reason, tc.wantReason) {
				t.Fatalf("reason %q does not mention %q", d.Reason, tc.wantReason)
			}
		})
	}
}

// TestAutoscaleConfigValidation covers the policy and clamp rejections at
// fleet construction.
func TestAutoscaleConfigValidation(t *testing.T) {
	base := proxy.Config{K: 2, EchoMode: true, Seed: 5}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"inverted hysteresis", Config{Shards: 1, ShardConfig: base,
			Autoscale: &AutoscalePolicy{UpOccupancy: 0.3, DownOccupancy: 0.6}}},
		{"max below min", Config{Shards: 1, ShardsMin: 3, ShardsMax: 2, ShardConfig: base,
			Autoscale: &AutoscalePolicy{}}},
		{"negative latency bound", Config{Shards: 1, ShardConfig: base,
			Autoscale: &AutoscalePolicy{UpLatencyP95: -time.Second}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if g, err := New(tc.cfg); err == nil {
				_ = g.Shutdown(context.Background())
				t.Fatal("New accepted an invalid autoscale config")
			}
		})
	}
}

// TestScaleUpAndDownEndToEnd exercises the manual scale path: a spawned
// shard joins the HRW ring and serves, and a scale-down retires the
// coldest shard through the sealed handoff with its history preserved on
// the survivor and the EPC invariant intact.
func TestScaleUpAndDownEndToEnd(t *testing.T) {
	g, err := New(Config{
		Shards:         1,
		ShardsMin:      1,
		ShardsMax:      3,
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	ctx := context.Background()

	idx, err := g.ScaleUp(ctx)
	if err != nil {
		t.Fatalf("ScaleUp: %v", err)
	}
	if idx != 1 {
		t.Fatalf("new shard index = %d, want 1", idx)
	}
	if _, err := g.ScaleUp(ctx); err != nil {
		t.Fatalf("second ScaleUp: %v", err)
	}
	if _, err := g.ScaleUp(ctx); err == nil {
		t.Fatal("ScaleUp past ShardsMax should fail")
	}

	// Spread queries; every shard should see some (the ring rebalanced).
	total := 0
	for i := 0; i < 90; i++ {
		if _, err := g.ServeQuery(ctx, fmt.Sprintf("elastic query %d", i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		total++
	}
	st := g.Stats()
	if st.CurrentShards != 3 || st.AliveShards != 3 || st.ScaleUps != 2 {
		t.Fatalf("after scale-up: current=%d alive=%d ups=%d", st.CurrentShards, st.AliveShards, st.ScaleUps)
	}
	for _, ss := range st.Shards {
		if ss.Proxy.HistoryLen == 0 {
			t.Fatalf("shard %d never served after rebalance: %+v", ss.Index, st.Shards)
		}
	}

	rep, err := g.ScaleDown(ctx)
	if err != nil {
		t.Fatalf("ScaleDown: %v", err)
	}
	post := g.Stats()
	if post.CurrentShards != 2 || post.ScaleDowns != 1 {
		t.Fatalf("after scale-down: current=%d downs=%d", post.CurrentShards, post.ScaleDowns)
	}
	histSum := 0
	for _, ss := range post.Shards {
		if ss.Index == rep.Shard {
			t.Fatalf("retired shard %d still in the ring", rep.Shard)
		}
		requireInvariant(t, fmt.Sprintf("post-scale-down shard %d", ss.Index), ss.Proxy)
		histSum += ss.Proxy.HistoryLen
	}
	if histSum != total {
		t.Fatalf("history lost in retirement: %d entries across survivors, want %d", histSum, total)
	}
	if rep.MigratedQueries == 0 {
		t.Fatalf("retirement migrated nothing: %+v", rep)
	}
}

// TestAutoscalerRetiresIdleFleet runs the real autoscaler loop: an idle
// two-shard fleet with min 1 must shrink itself to one shard (and then
// hold steady at the min clamp).
func TestAutoscalerRetiresIdleFleet(t *testing.T) {
	g, err := New(Config{
		Shards:    2,
		ShardsMin: 1,
		ShardsMax: 2,
		Autoscale: &AutoscalePolicy{
			Interval: 10 * time.Millisecond,
			Cooldown: 20 * time.Millisecond,
		},
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := g.ServeQuery(ctx, fmt.Sprintf("idle fleet query %d", i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st := g.Stats()
		if st.CurrentShards == 1 && st.ScaleDowns == 1 {
			// All 20 warm queries must have survived the retirement merge.
			if st.Shards[0].Proxy.HistoryLen != 20 {
				t.Fatalf("survivor history = %d, want 20", st.Shards[0].Proxy.HistoryLen)
			}
			requireInvariant(t, "autoscaled survivor", st.Shards[0].Proxy)
			// The loop must now report the min clamp, not keep retiring.
			waitSteady := time.Now().Add(time.Second)
			for time.Now().Before(waitSteady) {
				if d := g.Stats().LastScaleDecision; strings.Contains(d, "at min") {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("autoscaler never settled at the min clamp: %q", g.Stats().LastScaleDecision)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("autoscaler never retired the idle shard: %+v", g.Stats())
}

// TestAutoscalerScalesUpUnderLoad is the up case beside the idle one, with
// the decision taken from real load signals rather than a ScaleUp by hand.
// Every slot of the founding shard's pipeline is parked on an engine that
// does not answer until told to, so the occupancy a tick samples is a fact
// and not a race: one tick by hand spawns a shard, the next is held by the
// cooldown, and every parked request is still answered.
func TestAutoscalerScalesUpUnderLoad(t *testing.T) {
	const depth = 4
	arrived, gate := make(chan struct{}, depth), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	_, srv := newHookedTestEngine(t, func() time.Duration {
		arrived <- struct{}{}
		<-gate
		return 0
	})
	g, err := New(Config{
		Shards:    1,
		ShardsMin: 1,
		ShardsMax: 3,
		ShardConfig: proxy.Config{
			K:             2,
			Engines:       []proxy.EngineSpec{{Host: srv.Addr()}},
			Seed:          5,
			AsyncOcalls:   true,
			PipelineDepth: depth,
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()

	a := newAutoscaler(g, 1, 3, AutoscalePolicy{}.withDefaults())
	a.tick(time.Now())
	if st := g.Stats(); st.CurrentShards != 1 || st.ScaleUps != 0 {
		t.Fatalf("idle tick moved the fleet: current=%d ups=%d reason=%q", st.CurrentShards, st.ScaleUps, st.LastScaleDecision)
	}

	errs := make(chan error, depth)
	for i := 0; i < depth; i++ {
		go func() {
			_, err := g.ServeQuery(context.Background(), fmt.Sprintf("ramp query %d", i))
			errs <- err
		}()
	}
	for i := 0; i < depth; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests reached the engine", i, depth)
		}
	}
	a.tick(time.Now())
	st := g.Stats()
	if st.CurrentShards != 2 || st.ScaleUps != 1 || !strings.Contains(st.LastScaleDecision, "occupancy") {
		t.Fatalf("loaded tick did not scale up: current=%d ups=%d reason=%q", st.CurrentShards, st.ScaleUps, st.LastScaleDecision)
	}
	// Still saturated and below max, but inside the cooldown: one spawn.
	a.tick(time.Now())
	if st := g.Stats(); st.CurrentShards != 2 || st.ScaleUps != 1 || !strings.Contains(st.LastScaleDecision, "cooldown") {
		t.Fatalf("second tick ignored the cooldown: current=%d ups=%d reason=%q", st.CurrentShards, st.ScaleUps, st.LastScaleDecision)
	}

	release()
	for i := 0; i < depth; i++ {
		if err := <-errs; err != nil {
			t.Errorf("request lost across the scale-up: %v", err)
		}
	}
	for _, ss := range g.Stats().Shards {
		requireInvariant(t, fmt.Sprintf("post-scale-up shard %d", ss.Index), ss.Proxy)
	}
}

// TestAutoscaleRetirementKeepsObfuscationEffective is the scale-down
// privacy regression: an autoscaler-initiated retirement (decision core →
// sealed drain handoff → ring removal) migrates one shard's history into
// its successor mid-session, and SimAttack re-identification against the
// merged fake pool must not improve over the successor's own pool — the
// same property the operator-drain test pins, now on the elastic path.
func TestAutoscaleRetirementKeepsObfuscationEffective(t *testing.T) {
	genCfg := dataset.DefaultGeneratorConfig()
	genCfg.Users, genCfg.MeanQueries, genCfg.Seed = 40, 60, 3
	gen, err := dataset.NewGenerator(genCfg)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	log := gen.Generate()
	train, test, err := log.Split(0.5)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	attack, err := simattack.New(train, simattack.DefaultAlpha)
	if err != nil {
		t.Fatalf("simattack: %v", err)
	}

	g, err := New(Config{
		Shards:         2,
		ShardConfig:    proxy.Config{K: 3, EchoMode: true, Seed: 9},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	ctx := context.Background()

	// Fill the shard histories, mirroring the HRW routing so the test
	// knows each enclave's exact window contents without opening blobs.
	trainQueries := train.Queries()
	if len(trainQueries) > 1200 {
		trainQueries = trainQueries[:1200]
	}
	mirrors := map[int][]string{}
	for _, q := range trainQueries {
		idx := g.rank("q:" + q)[0].index
		if _, err := g.ServeQuery(ctx, q); err != nil {
			t.Fatalf("fill query: %v", err)
		}
		mirrors[idx] = append(mirrors[idx], q)
	}
	if len(mirrors[0]) == 0 || len(mirrors[1]) == 0 {
		t.Fatalf("degenerate routing: mirror sizes %d/%d", len(mirrors[0]), len(mirrors[1]))
	}

	// Fire one autoscale decision against the idle fleet: the decision
	// core must choose ScaleDown and the tick must execute the retirement
	// through the production path.
	a := newAutoscaler(g, 1, 2, AutoscalePolicy{}.withDefaults())
	a.tick(time.Now())
	st := g.Stats()
	if st.ScaleDowns != 1 || st.CurrentShards != 1 {
		t.Fatalf("autoscaler tick did not retire a shard: downs=%d current=%d reason=%q",
			st.ScaleDowns, st.CurrentShards, st.LastScaleDecision)
	}
	survivor := st.Shards[0].Index
	retired := 1 - survivor
	if want := len(mirrors[0]) + len(mirrors[1]); st.Shards[0].Proxy.HistoryLen != want {
		t.Fatalf("survivor history %d, want %d (own + migrated)", st.Shards[0].Proxy.HistoryLen, want)
	}
	requireInvariant(t, "post-retirement survivor", st.Shards[0].Proxy)

	// Re-identification with the survivor's own pool versus the merged
	// pool the retirement produced.
	testLog := &dataset.Log{Records: test.Records}
	if len(testLog.Records) > 150 {
		testLog.Records = testLog.Records[:150]
	}
	rate := func(pool []string) float64 {
		h, err := core.NewHistory(len(pool) + 1)
		if err != nil {
			t.Fatalf("history: %v", err)
		}
		for _, q := range pool {
			h.Add(q)
		}
		rng := mrand.New(mrand.NewPCG(11, 17))
		return attack.EvaluateObfuscated(testLog, func(rec dataset.Record) simattack.Obfuscation {
			fakes := h.Sample(3, rng.IntN)
			pos := rng.IntN(len(fakes) + 1)
			subs := make([]string, 0, len(fakes)+1)
			subs = append(subs, fakes[:pos]...)
			subs = append(subs, rec.Query)
			subs = append(subs, fakes[pos:]...)
			return simattack.Obfuscation{Subqueries: subs, OriginalIndex: pos}
		})
	}
	preRate := rate(mirrors[survivor])
	postRate := rate(append(append([]string{}, mirrors[survivor]...), mirrors[retired]...))
	if postRate > preRate+0.05 {
		t.Fatalf("re-identification improved after autoscaled retirement: pre=%.3f post=%.3f", preRate, postRate)
	}
}

// TestScaleAfterShutdownRefused pins the teardown race: a manual scale
// operation arriving after (or during) Shutdown must be refused rather
// than spawn a shard the teardown snapshot will never destroy.
func TestScaleAfterShutdownRefused(t *testing.T) {
	g, err := New(Config{
		Shards:         1,
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := g.ScaleUp(ctx); err == nil {
		t.Fatal("ScaleUp after Shutdown accepted: the spawned shard would leak")
	}
	if _, err := g.ScaleDown(ctx); err == nil {
		t.Fatal("ScaleDown after Shutdown accepted")
	}
}

// TestScaleDownEnforcesKAnonymityFloor pins the execution-path floor: a
// retirement whose sealed merge would overflow the successor's history
// window is refused even when requested directly.
func TestScaleDownEnforcesKAnonymityFloor(t *testing.T) {
	g, err := New(Config{
		Shards:         2,
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5, HistoryCapacity: 40},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	ctx := context.Background()
	// Fill both 40-entry windows well past half: any merge overflows.
	for i := 0; i < 120; i++ {
		if _, err := g.ServeQuery(ctx, fmt.Sprintf("floor query %d", i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if _, err := g.ScaleDown(ctx); err == nil || !strings.Contains(err.Error(), "k-anonymity floor") {
		t.Fatalf("ScaleDown = %v, want k-anonymity floor refusal", err)
	}
	// The decision core must refuse for the same reason.
	d := DecideScale(AutoscalePolicy{}.withDefaults(), time.Hour, g.loadSignals(), 1, 2)
	if d.Action != ScaleNone || !strings.Contains(d.Reason, "k-anonymity floor") {
		t.Fatalf("DecideScale = %+v, want k-anonymity floor refusal", d)
	}
	if g.Stats().CurrentShards != 2 {
		t.Fatal("refused scale-down still removed a shard")
	}
}
