package xsearch_test

// Full-stack integration scenarios through the public API only: the
// journeys a deployment actually goes through, combining attestation,
// sealed persistence, restarts and client recovery.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xsearch"
)

// A proxy restart with sealed persistence must preserve the obfuscation
// history, and a reconnecting client must keep getting obfuscated answers
// immediately (no cold start).
func TestProxyRestartPreservesHistory(t *testing.T) {
	engine := xsearch.NewEngine(xsearch.WithCorpusSize(20), xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	}()
	statePath := filepath.Join(t.TempDir(), "history.sealed")
	machine := []byte("integration-machine")

	mkProxy := func() *xsearch.Proxy {
		t.Helper()
		p, err := xsearch.NewProxy(
			xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
			xsearch.WithFakeQueries(2),
			xsearch.WithProxySeed(1),
			xsearch.WithStatePersistence(statePath, machine),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return p
	}
	connect := func(p *xsearch.Proxy) *xsearch.Client {
		t.Helper()
		c, err := xsearch.NewClient(p.URL(),
			xsearch.WithTrustedMeasurement(p.Measurement()),
			xsearch.WithAttestationKey(p.AttestationKey()))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Lifetime 1: populate history.
	p1 := mkProxy()
	c1 := connect(p1)
	for _, q := range []string{"mortgage rates", "garden roses", "playoff scores"} {
		if _, err := c1.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if got := p1.Stats().HistoryLen; got != 3 {
		t.Fatalf("history before restart = %d", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := p1.Shutdown(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()

	// The sealed blob must not leak plaintext to the host.
	blob, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "mortgage") {
		t.Fatal("sealed state leaks plaintext")
	}

	// Lifetime 2: restore; the very first query must already be fully
	// obfuscated with k=2 fakes drawn from the restored history.
	p2 := mkProxy()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = p2.Shutdown(ctx)
	}()
	if got := p2.Stats().HistoryLen; got != 3 {
		t.Fatalf("history after restart = %d, want 3", got)
	}
	c2 := connect(p2)
	before := len(engine.QueryLog())
	if _, err := c2.Search(context.Background(), "divorce attorney"); err != nil {
		t.Fatal(err)
	}
	logs := engine.QueryLog()
	if len(logs) != before+1 {
		t.Fatalf("engine saw %d new queries", len(logs)-before)
	}
	seen := logs[len(logs)-1].Query
	if !strings.Contains(seen, " OR ") || seen == "divorce attorney" {
		t.Errorf("first post-restart query not obfuscated: %q", seen)
	}
}

// A two-engine topology end to end: one proxy fans obfuscated queries out
// across two curious engines. Each engine must observe only a share of the
// traffic — never the whole stream — and every query it does see must be
// obfuscated.
func TestTwoEngineFanoutSharesTraffic(t *testing.T) {
	mkEngine := func(seed uint64) *xsearch.Engine {
		e := xsearch.NewEngine(xsearch.WithCorpusSize(10), xsearch.WithEngineSeed(seed))
		if err := e.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = e.Shutdown(ctx)
		})
		return e
	}
	engA, engB := mkEngine(1), mkEngine(2)

	p, err := xsearch.NewProxy(
		xsearch.WithEngines(
			xsearch.EngineSpec{Host: engA.Addr()},
			xsearch.EngineSpec{Host: engB.Addr()},
		),
		xsearch.WithFakeQueries(2),
		xsearch.WithProxySeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	c, err := xsearch.NewClient(p.URL(),
		xsearch.WithTrustedMeasurement(p.Measurement()),
		xsearch.WithAttestationKey(p.AttestationKey()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"mortgage rates", "garden roses", "playoff scores", "paris flights",
		"chicken recipe", "knitting pattern", "used car dealer", "divorce attorney",
		"tax return help", "guitar lessons", "weather tomorrow", "pizza near me",
	}
	for _, q := range queries {
		if _, err := c.Search(context.Background(), q); err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
	}

	logA, logB := engA.QueryLog(), engB.QueryLog()
	total := len(queries)
	if len(logA)+len(logB) != total {
		t.Fatalf("engines saw %d+%d queries, want %d total", len(logA), len(logB), total)
	}
	if len(logA) == 0 || len(logB) == 0 {
		t.Errorf("an engine saw no traffic (%d vs %d): fan-out not spreading", len(logA), len(logB))
	}
	if len(logA) == total || len(logB) == total {
		t.Error("one engine observed the full query stream")
	}
	// Each observed query must be the OR-aggregated obfuscation. Only the
	// cold start is exempt: with an empty history there are no past
	// queries to draw fakes from, so at most the first k queries may go
	// out bare (exactly as in the paper's bootstrap).
	bare := 0
	for _, logged := range [][]xsearch.LoggedQuery{logA, logB} {
		for _, l := range logged {
			if !strings.Contains(l.Query, " OR ") {
				bare++
			}
		}
	}
	if bare > 2 {
		t.Errorf("%d queries reached the engines unobfuscated (only the <=k cold-start queries may)", bare)
	}
	// The proxy's own per-upstream accounting must agree with the logs.
	st := p.Stats()
	if len(st.Upstreams) != 2 {
		t.Fatalf("stats report %d upstreams", len(st.Upstreams))
	}
	if got := st.Upstreams[0].Served + st.Upstreams[1].Served; got != uint64(total) {
		t.Errorf("upstream stats served %d, want %d", got, total)
	}
}

// Two independent clients of one proxy must each get correct, isolated
// channels: records of one session never decrypt on the other.
func TestTwoClientsIsolatedChannels(t *testing.T) {
	engine := xsearch.NewEngine(xsearch.WithCorpusSize(10), xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	}()
	p, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(1),
		xsearch.WithProxySeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	mk := func() *xsearch.Client {
		c, err := xsearch.NewClient(p.URL(),
			xsearch.WithTrustedMeasurement(p.Measurement()),
			xsearch.WithAttestationKey(p.AttestationKey()))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	for i := 0; i < 3; i++ {
		if _, err := a.Search(context.Background(), "chicken recipe"); err != nil {
			t.Fatalf("client a: %v", err)
		}
		if _, err := b.Search(context.Background(), "mortgage rates"); err != nil {
			t.Fatalf("client b: %v", err)
		}
	}
	if got := p.Stats().Handshakes; got != 2 {
		t.Errorf("handshakes = %d, want 2", got)
	}
}
