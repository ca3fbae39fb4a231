package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/searchengine"
)

// testStack spins up an engine and a proxy against it.
type testStack struct {
	engine    *searchengine.Engine
	engineSrv *searchengine.Server
	proxy     *Proxy
}

func newTestStack(t *testing.T, mutate func(*Config)) *testStack {
	t.Helper()
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
	cfg := Config{
		K:       2,
		Engines: []EngineSpec{{Host: engineSrv.Addr()}},
		Seed:    1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	})
	return &testStack{engine: engine, engineSrv: engineSrv, proxy: p}
}

// plainSearch runs q through p's in-process entry point and fails the
// test on an error.
func plainSearch(t *testing.T, p *Proxy, q string) []core.Result {
	t.Helper()
	results, err := p.ServeQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: -1, EchoMode: true}); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := New(Config{K: 1}); err == nil {
		t.Error("missing engine host accepted")
	}
}

// Every Config field is a knob someone must understand, set and test.
// ROADMAP aim 2: a new knob needs a measured reason, and raising this
// number is an explicit edit, like scripts/loc.budget.
func TestConfigFieldBudget(t *testing.T) {
	const budget = 29
	if n := reflect.TypeOf(Config{}).NumField(); n > budget {
		t.Fatalf("proxy.Config has %d fields, budget %d", n, budget)
	}
}

// Every EngineSpec field is a per-upstream knob; the pool bound is
// Config.PoolSize for all of them. Raising this number is an explicit
// edit, like scripts/loc.budget.
func TestEngineSpecFieldBudget(t *testing.T) {
	const budget = 3
	if n := reflect.TypeOf(EngineSpec{}).NumField(); n > budget {
		t.Fatalf("proxy.EngineSpec has %d fields, budget %d", n, budget)
	}
}

func TestPlainSearchEndToEnd(t *testing.T) {
	st := newTestStack(t, nil)
	// Warm the history so obfuscation has fakes.
	for i, q := range []string{"mortgage rates", "chicken recipe", "playoff scores"} {
		results := plainSearch(t, st.proxy, q)
		_ = results
		_ = i
	}
	results := plainSearch(t, st.proxy, "flights paris hotel")
	if len(results) == 0 {
		t.Fatal("no results for warm query")
	}
	// Filtered results must be topically related to the original query.
	related := 0
	for _, r := range results {
		text := r.Title + " " + r.Snippet
		if strings.Contains(text, "flights") || strings.Contains(text, "paris") ||
			strings.Contains(text, "hotel") {
			related++
		}
	}
	if related == 0 {
		t.Errorf("no filtered result mentions the original terms: %+v", results)
	}
}

// The privacy property the whole system exists for: the search engine must
// see OR-aggregated obfuscated queries from the proxy's address, never the
// client's original query alone.
func TestEngineSeesObfuscatedQueriesOnly(t *testing.T) {
	st := newTestStack(t, nil)
	// Issue a few queries to populate history, then the sensitive one.
	for _, q := range []string{"mortgage refinance", "garden roses", "divorce attorney"} {
		plainSearch(t, st.proxy, q)
	}
	sensitive := "hiv symptoms clinic"
	plainSearch(t, st.proxy, sensitive)

	logs := st.engine.QueryLog()
	if len(logs) == 0 {
		t.Fatal("engine saw no queries")
	}
	last := logs[len(logs)-1]
	if last.Query == sensitive {
		t.Fatal("sensitive query reached the engine unobfuscated")
	}
	if !strings.Contains(last.Query, sensitive) || !strings.Contains(last.Query, " OR ") {
		t.Errorf("expected OR-aggregated query containing the original, got %q", last.Query)
	}
	subs := searchengine.SplitOR(last.Query)
	if len(subs) != 3 { // k=2 fakes + original
		t.Errorf("obfuscated query has %d sub-queries, want 3: %q", len(subs), last.Query)
	}
}

func TestEchoMode(t *testing.T) {
	p, err := New(Config{K: 2, EchoMode: true, Seed: 1})
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
	results := plainSearch(t, p, "any query at all")
	if len(results) != 0 {
		t.Errorf("echo mode returned results: %v", results)
	}
	if p.Stats().HistoryLen != 1 {
		t.Errorf("history len = %d, obfuscation should still run", p.Stats().HistoryLen)
	}
}

func TestStatsEndpoint(t *testing.T) {
	st := newTestStack(t, nil)
	plainSearch(t, st.proxy, "chicken recipe")
	resp, err := http.Get(st.proxy.URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests == 0 || stats.Enclave.ECalls == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.HistoryLen != 1 {
		t.Errorf("history len = %d", stats.HistoryLen)
	}
}

func TestHistoryChargedToEPC(t *testing.T) {
	st := newTestStack(t, nil)
	before := st.proxy.Stats().Enclave.HeapBytes
	for i := 0; i < 10; i++ {
		plainSearch(t, st.proxy, fmt.Sprintf("distinct query number %d", i))
	}
	after := st.proxy.Stats().Enclave.HeapBytes
	if after <= before {
		t.Errorf("enclave heap did not grow: %d -> %d", before, after)
	}
}

func TestMeasurementDependsOnConfig(t *testing.T) {
	p1, err := New(Config{K: 2, EchoMode: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.encl.Destroy()
	p2, err := New(Config{K: 3, EchoMode: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.encl.Destroy()
	if p1.Measurement() == p2.Measurement() {
		t.Error("different k must produce different MRENCLAVE")
	}
}

func TestConcurrentPlainSearches(t *testing.T) {
	st := newTestStack(t, func(c *Config) {
		c.EnclaveConfig = enclave.Config{TCSCount: 8}
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := st.proxy.ServeQuery(context.Background(), "chicken recipe"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := st.proxy.Stats().Requests; got != 64 {
		t.Errorf("requests = %d, want 64", got)
	}
}

func TestSecureUnknownSession(t *testing.T) {
	st := newTestStack(t, nil)
	if status, _ := postSecure(t, st.proxy.URL(), "deadbeef", []byte("junk")); status == http.StatusOK {
		t.Error("unknown session accepted")
	}
}

func TestSplitHostPort(t *testing.T) {
	host, port, err := splitHostPort("127.0.0.1:8080")
	if err != nil || host != "127.0.0.1" || port != 8080 {
		t.Errorf("got %q %d %v", host, port, err)
	}
	if _, _, err := splitHostPort("noport"); err == nil {
		t.Error("missing port accepted")
	}
	if _, _, err := splitHostPort("host:notnum"); err == nil {
		t.Error("bad port accepted")
	}
}

func TestQueryEscape(t *testing.T) {
	if got := queryEscape("a b OR c"); got != "a+b+OR+c" {
		t.Errorf("queryEscape = %q", got)
	}
	if got := queryEscape("x&y"); got != "x%26y" {
		t.Errorf("queryEscape = %q", got)
	}
}
