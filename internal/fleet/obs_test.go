package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"xsearch/internal/obs"
	"xsearch/internal/proxy"
)

// Tests for the fleet half of the observability layer: stage-histogram
// merging, the fleet-merged /metrics endpoint with its ?shard=N selector,
// and the shared event ring capturing fleet lifecycle transitions.

// obsFleet is echoFleet with the observability layer on in every shard.
func obsFleet(t *testing.T, shards int) *Gateway {
	t.Helper()
	g, err := New(Config{
		Shards: shards,
		ShardConfig: proxy.Config{
			K: 2, EchoMode: true, Seed: 5, Observability: true,
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})
	return g
}

func TestFleetStageMergeSumsCountsTakesWorstTails(t *testing.T) {
	g := obsFleet(t, 3)
	fillNumbered(t, g, 60, "merge query %d")
	fs := g.Stats()
	if fs.Total.Stages == nil {
		t.Fatal("fleet stats carry no merged stages")
	}
	for _, stage := range []string{obs.StageObfuscate, obs.StageReply} {
		var sum uint64
		var maxP95, maxMax time.Duration
		for _, ss := range fs.Shards {
			snap := ss.Proxy.Stages[stage]
			sum += snap.Count
			if snap.P95 > maxP95 {
				maxP95 = snap.P95
			}
			if snap.Max > maxMax {
				maxMax = snap.Max
			}
		}
		merged := fs.Total.Stages[stage]
		if merged.Count != sum {
			t.Errorf("stage %q merged count = %d, want sum %d", stage, merged.Count, sum)
		}
		if merged.P95 != maxP95 {
			t.Errorf("stage %q merged p95 = %v, want worst-shard %v", stage, merged.P95, maxP95)
		}
		if merged.Max != maxMax {
			t.Errorf("stage %q merged max = %v, want worst-shard %v", stage, merged.Max, maxMax)
		}
	}
	if fs.Total.Stages[obs.StageReply].Count != 60 {
		t.Errorf("reply count = %d, want 60", fs.Total.Stages[obs.StageReply].Count)
	}
}

func TestGatewayMetricsEndpointMergedAndPerShard(t *testing.T) {
	g := obsFleet(t, 2)
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	fillNumbered(t, g, 20, "gateway metrics %d")
	get := func(path string) (int, string, string) {
		resp, err := http.Get(g.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}

	code, ct, text := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	for _, want := range []string{
		"xsearch_fleet_shards 2",
		"xsearch_fleet_shards_alive 2",
		"# TYPE xsearch_fleet_stage_latency_seconds summary",
		`xsearch_requests_total{shard="0"}`,
		`xsearch_requests_total{shard="1"}`,
		`xsearch_stage_latency_seconds_count{shard="0",stage="reply"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet /metrics missing %q in:\n%s", want, text)
		}
	}

	// ?shard=N narrows to one shard, still shard-labelled.
	code, _, text = get("/metrics?shard=1")
	if code != http.StatusOK {
		t.Fatalf("/metrics?shard=1 status %d", code)
	}
	if !strings.Contains(text, `xsearch_requests_total{shard="1"}`) {
		t.Errorf("?shard=1 missing shard 1 series:\n%s", text)
	}
	if strings.Contains(text, `shard="0"`) {
		t.Errorf("?shard=1 leaked shard 0 series:\n%s", text)
	}
	if code, _, _ = get("/metrics?shard=9"); code != http.StatusNotFound {
		t.Errorf("/metrics?shard=9 status %d, want 404", code)
	}
	if code, _, _ = get("/metrics?shard=bogus"); code != http.StatusNotFound {
		t.Errorf("/metrics?shard=bogus status %d, want 404", code)
	}

	// /stats grows the same selector.
	code, ct, text = get("/stats?shard=0")
	if code != http.StatusOK {
		t.Fatalf("/stats?shard=0 status %d", code)
	}
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/stats?shard=0 Content-Type = %q", ct)
	}
	var ps proxy.Stats
	if err := json.Unmarshal([]byte(text), &ps); err != nil {
		t.Fatalf("/stats?shard=0 not a proxy snapshot: %v", err)
	}
	if ps.Requests == 0 {
		t.Errorf("shard 0 snapshot empty: %+v", ps)
	}
	if code, _, _ = get("/stats?shard=7"); code != http.StatusNotFound {
		t.Errorf("/stats?shard=7 status %d, want 404", code)
	}
}

// TestShardTemplateEventRingIsShared: an event log on the shard template
// alone gives the gateway and every shard that one ring, of the template
// log's size and mirrored to its stream.
func TestShardTemplateEventRingIsShared(t *testing.T) {
	var stream bytes.Buffer // written under the ring's lock only
	g, err := New(Config{
		Shards: 6,
		ShardConfig: proxy.Config{
			K: 2, EchoMode: true, Seed: 5, EventLog: obs.NewLog(8, obs.WithStream(&stream)),
		},
		HealthInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = g.Shutdown(context.Background()) })
	if g.events == nil {
		t.Fatal("template event-log settings built no fleet ring")
	}

	// Four kills and the health probe's four deaths fill the ring of 8;
	// the drain's event pushes the first kill out.
	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		if err := g.Kill(ctx, i); err != nil {
			t.Fatalf("Kill %d: %v", i, err)
		}
	}
	count := func(typ string) (n int) {
		for _, ev := range g.events.Snapshot() {
			if ev.Type == typ {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(2 * time.Second); count(obs.EvShardDead) < 4; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("health probe noted %d of 4 deaths", count(obs.EvShardDead))
		}
	}
	if _, err := g.Drain(ctx, 0); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	ring := g.events.Snapshot()
	if len(ring) != 8 || ring[0].Seq != 2 || ring[7].Type != obs.EvDrain {
		t.Fatalf("ring holds %+v, want the last 8 of 9 events, ending in the drain", ring)
	}
	// The fleet cannot reach a shard's log, so occupancy stands in for the
	// pointer comparison: a shard with a ring of its own holds at most the
	// few events it logged itself, never the gateway ring's 8.
	for _, sh := range g.shards {
		if n := sh.proxy.Stats().EventsLogged; n != len(ring) {
			t.Fatalf("shard %d counts %d events, not the gateway ring's %d: it has a ring of its own", sh.index, n, len(ring))
		}
	}
	types := map[string]int{}
	dec := json.NewDecoder(&stream)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream is not JSON lines: %v", err)
		}
		types[ev.Type]++
	}
	if want := map[string]int{obs.EvKill: 4, obs.EvShardDead: 4, obs.EvDrain: 1}; !reflect.DeepEqual(types, want) {
		t.Fatalf("stream carried %v, want %v", types, want)
	}
}

func TestFleetEventsCaptureLifecycle(t *testing.T) {
	// A fast health probe so the gateway formally notes the killed
	// shard's death (EvShardDead) — the handshake path only routes around
	// it.
	g, err := New(Config{
		Shards: 3,
		ShardConfig: proxy.Config{
			K: 2, EchoMode: true, Seed: 5, Observability: true,
		},
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fillNumbered(t, g, 30, "lifecycle %d")
	if err := g.Kill(ctx, 1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Handshakes go to the live shards only.
	for i := 0; i < 30; i++ {
		gatewayHandshake(t, g)
	}
	// Wait for the health probe to note the death.
	deadline := time.Now().Add(2 * time.Second)
	for {
		seen := false
		for _, ev := range g.events.Snapshot() {
			if ev.Type == obs.EvShardDead {
				seen = true
			}
		}
		if seen || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := g.Drain(ctx, 2); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	types := map[string]int{}
	var lastSeq uint64
	for _, ev := range g.events.Snapshot() {
		if ev.Seq <= lastSeq {
			t.Errorf("event seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types[ev.Type]++
	}
	for _, want := range []string{
		obs.EvKill, obs.EvShardDead, obs.EvDrain,
	} {
		if types[want] == 0 {
			t.Errorf("event log missing %q; saw %v", want, types)
		}
	}
	fs := g.Stats()
	if fs.EventsLogged == 0 {
		t.Error("fleet stats report zero events")
	}

	// The /events endpoint serves the same ring as JSON.
	resp, err := http.Get(g.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/events Content-Type = %q", ct)
	}
	var evs []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("/events decode: %v", err)
	}
	if len(evs) == 0 {
		t.Error("/events empty after kill/drain events")
	}
}
