package proxy

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"xsearch/internal/searchengine"
)

// SimAttack-style telemetry-leakage regression. The paper's adversary is
// the host itself: anything the proxy publishes — /metrics, /events — is
// adversary-readable by construction. The observability layer's contract
// is therefore twofold:
//
//  1. Content-free: no query or result text, or any substring of it, ever
//     appears in telemetry.
//  2. Constant-shape: the set of series (metric names + label sets) does
//     not depend on WHAT was queried, only on configuration — so an
//     adversary diffing two scrapes learns nothing that helps SimAttack
//     re-identify a user's queries.
//
// The test runs two proxies over disjoint, highly distinctive query sets
// against the same engine and asserts both properties.

func TestTelemetryIsContentFreeAndConstantShape(t *testing.T) {
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 20, Seed: 1})))
	engineSrv := searchengine.NewServer(engine)
	if err := engineSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engineSrv.Shutdown(ctx)
	})

	// Distinctive multi-token queries an adversary would love to spot.
	// The tokens are chosen to never collide with metric names, label
	// values, or event vocabulary.
	setA := []string{
		"zq1xv chronic hernia treatment kwv9p",
		"zq1xv bankruptcy attorney hometown kwv9p",
		"zq1xv rare bloodtype registry kwv9p",
	}
	setB := []string{
		"yj7rm divorce settlement calculator xn3tc",
		"yj7rm oncology secondopinion clinic xn3tc",
		"yj7rm politicalasylum application xn3tc",
	}

	scrape := func(t *testing.T, queries []string) (metricsText, eventsText string) {
		t.Helper()
		p, err := New(Config{
			K:             2,
			Engines:       []EngineSpec{{Host: engineSrv.Addr()}},
			Seed:          1,
			Observability: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownProxy(t, p) })
		for _, q := range queries {
			if _, err := p.ServeQuery(context.Background(), q); err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
		}
		get := func(path string) string {
			resp, err := http.Get(p.URL() + path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resp.Body.Close() }()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		return get("/metrics"), get("/events")
	}

	metA, evA := scrape(t, setA)
	metB, evB := scrape(t, setB)

	// Property 1: content-free. No token of any query may appear in any
	// telemetry output — not even the proxy's own scrape of the OTHER
	// run, which would indicate cross-request retention.
	for _, q := range append(append([]string{}, setA...), setB...) {
		for _, tok := range strings.Fields(q) {
			for name, text := range map[string]string{
				"metrics A": metA, "metrics B": metB, "events A": evA, "events B": evB,
			} {
				if strings.Contains(strings.ToLower(text), strings.ToLower(tok)) {
					t.Errorf("query token %q leaked into %s", tok, name)
				}
			}
		}
	}

	// Property 2: constant shape. The series identity sets (name + label
	// pairs, values stripped) must be identical across the two runs.
	// The upstream host label differs only by the engine's ephemeral
	// port, which both runs share here — no normalization needed.
	shapeA, shapeB := seriesShape(metA), seriesShape(metB)
	if len(shapeA) == 0 {
		t.Fatal("no series scraped")
	}
	if diff := shapeDiff(shapeA, shapeB); diff != "" {
		t.Errorf("telemetry shape depends on query content:\n%s", diff)
	}
}

// seriesShape reduces exposition text to the sorted set of series
// identities: metric name plus rendered labels, sample values dropped.
func seriesShape(text string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			continue
		}
		seen[line[:idx]] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func shapeDiff(a, b []string) string {
	inA := map[string]bool{}
	for _, s := range a {
		inA[s] = true
	}
	inB := map[string]bool{}
	for _, s := range b {
		inB[s] = true
	}
	var sb strings.Builder
	for _, s := range a {
		if !inB[s] {
			fmt.Fprintf(&sb, "only in A: %s\n", s)
		}
	}
	for _, s := range b {
		if !inA[s] {
			fmt.Fprintf(&sb, "only in B: %s\n", s)
		}
	}
	return sb.String()
}
