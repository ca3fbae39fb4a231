package fleet

import (
	"bytes"
	"context"
	"fmt"
	mrand "math/rand/v2"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
	"xsearch/internal/simattack"
)

// Tests for the answer tier crossing the fleet seams: the sealed index
// blob riding the planned-drain handoff, and the privacy regression that
// serving queries locally never helps re-identification.

func newIndexTestEngine(t *testing.T) (*searchengine.Engine, *searchengine.Server) {
	t.Helper()
	return newHookedTestEngine(t, nil)
}

// newHookedTestEngine starts a loopback engine that calls delayFn inside
// every request's handler (and sleeps what it returns) before answering.
func newHookedTestEngine(t *testing.T, delayFn func() time.Duration) (*searchengine.Engine, *searchengine.Server) {
	t.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	srv.DelayFn = delayFn
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("engine: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return engine, srv
}

// TestDrainCarriesIndexBlob drains a shard whose answer tier holds
// documents: the index must migrate to the successor as a sealed blob the
// gateway cannot open, the extended EPC invariant must be green on both
// sides, and a rephrased query for the migrated documents must then hit
// the successor's index with no upstream round trip.
func TestDrainCarriesIndexBlob(t *testing.T) {
	engine, srv := newIndexTestEngine(t)
	g, err := New(Config{
		Shards: 2,
		ShardConfig: proxy.Config{
			K:          2,
			Engines:    []proxy.EngineSpec{{Host: srv.Addr()}},
			Seed:       9,
			IndexBytes: 1 << 20,
			IndexTTL:   time.Hour,
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
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()

	// Seed both shards' indexes; keep one topical query known to route to
	// shard 0 so the post-drain probe targets migrated documents.
	seeds := []string{
		"chicken recipe oven baking",
		"mortgage refinance loan rates",
		"flights hotel paris resort",
		"garden roses compost mulch",
		"playoff scores roster draft",
		"laptop wireless router software",
	}
	var fromShard0 string
	for _, q := range seeds {
		if _, err := g.ServeQuery(ctx, q); err != nil {
			t.Fatalf("seed query %q: %v", q, err)
		}
		if fromShard0 == "" && g.rank("q:" + q)[0].index == 0 {
			fromShard0 = q
		}
	}
	if fromShard0 == "" {
		t.Fatal("no seed query routed to shard 0")
	}

	pre := g.Stats()
	for i, ss := range pre.Shards {
		requireInvariant(t, fmt.Sprintf("pre-drain shard %d", i), ss.Proxy)
	}
	if pre.Shards[0].Proxy.IndexDocs == 0 {
		t.Fatal("shard 0 indexed nothing; the drain would carry an empty blob")
	}
	if pre.IndexDocs != pre.Shards[0].Proxy.IndexDocs+pre.Shards[1].Proxy.IndexDocs {
		t.Errorf("fleet IndexDocs %d != per-shard sum", pre.IndexDocs)
	}

	// The blob the gateway moves is sealed: the host-visible bytes must
	// not leak the indexed plaintext.
	blob, err := g.shardByIndex(0).proxy.SnapshotState(ctx)
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	if len(blob) == 0 {
		t.Fatal("empty index snapshot from a populated shard")
	}
	for _, term := range []string{"chicken", "mortgage", "http"} {
		if bytes.Contains(blob, []byte(term)) {
			t.Fatalf("sealed index blob leaks plaintext term %q", term)
		}
	}

	rep, err := g.Drain(ctx, 0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.MigratedIndexDocs == 0 || rep.MigratedIndexBytes <= 0 {
		t.Fatalf("index handoff carried nothing: %+v", rep)
	}

	post := g.Stats()
	succ := post.Shards[1].Proxy
	requireInvariant(t, "post-drain successor", succ)
	if succ.IndexDocs != pre.Shards[1].Proxy.IndexDocs+rep.MigratedIndexDocs {
		t.Errorf("successor index docs %d, want own %d + migrated %d",
			succ.IndexDocs, pre.Shards[1].Proxy.IndexDocs, rep.MigratedIndexDocs)
	}

	// Migrated sessions keep their answer tier: a rephrase of a query the
	// DRAINED shard indexed must now hit locally on the successor.
	upstream := engine.QueryLog()
	rephrased := rephrase(fromShard0)
	results, err := g.ServeQuery(ctx, rephrased)
	if err != nil {
		t.Fatalf("post-drain rephrase: %v", err)
	}
	if len(results) == 0 {
		t.Error("post-drain rephrase returned no results")
	}
	if got := engine.QueryLog(); len(got) != len(upstream) {
		t.Errorf("engine saw %d queries after rephrase, want %d (migrated index hit)",
			len(got), len(upstream))
	}
	final := g.Stats()
	if final.IndexHits == 0 {
		t.Error("no index hits after probing migrated documents")
	}
	requireInvariant(t, "post-probe successor", final.Shards[1].Proxy)
}

// rephrase reverses a query's word order: a different string (no exact
// cache key can match) with identical terms.
func rephrase(q string) string {
	words := []string{}
	for _, w := range bytes.Fields([]byte(q)) {
		words = append([]string{string(w)}, words...)
	}
	out := ""
	for i, w := range words {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// TestIndexDoesNotImproveReidentification is the privacy regression for
// the answer tier: queries the index serves locally produce NO upstream
// emission, so the attacker's view with the index enabled is a strict
// subset of the obfuscation-only baseline — re-identification must not
// improve. The test replays a SimAttack test log through a real proxy
// with the index on, records which queries were answered locally, and
// scores both views.
func TestIndexDoesNotImproveReidentification(t *testing.T) {
	genCfg := dataset.DefaultGeneratorConfig()
	genCfg.Users, genCfg.MeanQueries, genCfg.Seed = 30, 40, 5
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

	_, srv := newIndexTestEngine(t)
	p, err := proxy.New(proxy.Config{
		K:          3,
		Engines:    []proxy.EngineSpec{{Host: srv.Addr()}},
		Seed:       7,
		IndexBytes: 1 << 20,
		IndexTTL:   time.Hour,
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	defer p.Crash()

	testLog := &dataset.Log{Records: test.Records}
	if len(testLog.Records) > 200 {
		testLog.Records = testLog.Records[:200]
	}

	// Replay the test stream through the proxy and record, per query,
	// whether the answer tier served it (no upstream emission).
	ctx := context.Background()
	localServed := make([]bool, len(testLog.Records))
	var prevHits uint64
	for i, rec := range testLog.Records {
		if _, err := p.ServeQuery(ctx, rec.Query); err != nil {
			t.Fatalf("replay query %d: %v", i, err)
		}
		s := p.Stats()
		localServed[i] = s.IndexHits > prevHits
		prevHits = s.IndexHits
	}
	served := 0
	for _, hit := range localServed {
		if hit {
			served++
		}
	}
	if served == 0 {
		t.Fatal("index served nothing on a repeat-heavy log; regression is vacuous")
	}

	// Score the attacker's two views. The fake pool mirrors the proxy's
	// history (the replayed stream itself).
	pool := make([]string, 0, len(testLog.Records))
	for _, rec := range testLog.Records {
		pool = append(pool, rec.Query)
	}
	h, err := core.NewHistory(len(pool) + 1)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	for _, q := range pool {
		h.Add(q)
	}
	rate := func(withIndex bool) float64 {
		rng := mrand.New(mrand.NewPCG(13, 19))
		i := -1
		return attack.EvaluateObfuscated(testLog, func(rec dataset.Record) simattack.Obfuscation {
			i++
			fakes := h.Sample(3, rng.IntN)
			if withIndex && localServed[i] {
				// Served in-enclave: the engines saw nothing for this
				// query. The attacker has no emission to score, which
				// EvaluateObfuscated models as an unguessable original.
				return simattack.Obfuscation{Subqueries: fakes, OriginalIndex: -1}
			}
			pos := rng.IntN(len(fakes) + 1)
			subs := make([]string, 0, len(fakes)+1)
			subs = append(subs, fakes[:pos]...)
			subs = append(subs, rec.Query)
			subs = append(subs, fakes[pos:]...)
			return simattack.Obfuscation{Subqueries: subs, OriginalIndex: pos}
		})
	}
	baseline := rate(false)
	indexed := rate(true)
	if indexed > baseline+0.02 {
		t.Fatalf("re-identification improved with the index: baseline=%.3f indexed=%.3f (%d/%d served locally)",
			baseline, indexed, served, len(testLog.Records))
	}
}
