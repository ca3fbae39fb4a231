package broker

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/client"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/mux"
	"xsearch/internal/proxy"
	"xsearch/internal/raceflag"
	"xsearch/internal/searchengine"
	"xsearch/internal/serve"
)

// stack wires engine + proxy and returns a broker config template.
type stack struct {
	engine *searchengine.Engine
	proxy  *proxy.Proxy
}

func newStack(t *testing.T) *stack {
	t.Helper()
	return newStackWith(t, proxy.Config{K: 2, Seed: 1})
}

// newStackWith wires cfg (its Engines aside) to a fresh engine.
func newStackWith(t *testing.T, cfg proxy.Config) *stack {
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
	cfg.Engines = []proxy.EngineSpec{{Host: engineSrv.Addr()}}
	p, err := proxy.New(cfg)
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
	return &stack{engine: engine, proxy: p}
}

func (s *stack) brokerConfig() Config {
	return Config{
		ProxyURL:   s.proxy.URL(),
		ServiceKey: s.proxy.AttestationService().PublicKey(),
		Policy: attestation.Policy{
			AcceptedMeasurements: []enclave.Measurement{s.proxy.Measurement()},
		},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{ProxyURL: "http://x"}); err == nil {
		t.Error("missing service key accepted")
	}
	if _, err := New(Config{ProxyURL: "http://x", ServiceKey: make([]byte, 32)}); err == nil {
		t.Error("empty policy accepted")
	}
	valid := Config{
		ProxyURL:   "http://x",
		ServiceKey: make([]byte, 32),
		Policy:     attestation.Policy{AcceptedMeasurements: []enclave.Measurement{{}}},
	}
	for _, transport := range []string{"ws", "quic"} {
		cfg := valid
		cfg.Transport = transport
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), "http") || !strings.Contains(err.Error(), "mux") {
			t.Errorf("Transport %q: err = %v, want a refusal naming http and mux", transport, err)
		}
	}
	cfg := valid
	cfg.Transport = "mux"
	if _, err := New(cfg); err == nil {
		t.Error(`Transport "mux" without MuxAddr accepted`)
	}
}

func TestSearchRequiresConnect(t *testing.T) {
	st := newStack(t)
	b, err := New(st.brokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Search(context.Background(), "q"); !errors.Is(err, client.ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
	if b.Connected() {
		t.Error("Connected() = true before Connect")
	}
}

func TestConnectAndSearch(t *testing.T) {
	st := newStack(t)
	b, err := New(st.brokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !b.Connected() {
		t.Fatal("not connected after Connect")
	}
	// Warm the proxy history.
	for _, q := range []string{"mortgage rates", "garden roses"} {
		if _, err := b.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	results, err := b.Search(context.Background(), "chicken recipe dinner")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results over the secure channel")
	}
	// The engine must never have seen a bare query: all logged queries
	// from this flow are either single (cold start) or OR-aggregated and
	// none equal the sensitive query directly once history is warm.
	logs := st.engine.QueryLog()
	last := logs[len(logs)-1].Query
	if last == "chicken recipe dinner" {
		t.Error("query reached engine unobfuscated")
	}
	if !strings.Contains(last, " OR ") {
		t.Errorf("expected OR query, got %q", last)
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	st := newStack(t)
	cfg := st.brokerConfig()
	cfg.Policy = attestation.Policy{
		AcceptedMeasurements: []enclave.Measurement{{0xBA, 0xD0}},
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = b.Connect(context.Background())
	if err == nil {
		t.Fatal("Connect succeeded against unacceptable measurement")
	}
	if !errors.Is(err, attestation.ErrMeasurementNotInPolicy) {
		t.Errorf("err = %v", err)
	}
}

func TestAttestationRejectsWrongServiceKey(t *testing.T) {
	st := newStack(t)
	cfg := st.brokerConfig()
	other, err := attestation.NewService()
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServiceKey = other.PublicKey()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(context.Background()); err == nil {
		t.Fatal("Connect accepted report signed by unknown service")
	}
}

func TestSequentialSearchesUseOneChannel(t *testing.T) {
	st := newStack(t)
	b, err := New(st.brokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Search(context.Background(), "flights paris"); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	if got := st.proxy.Stats().Handshakes; got != 1 {
		t.Errorf("handshakes = %d, want 1", got)
	}
}

func TestLocalServer(t *testing.T) {
	st := newStack(t)
	b, err := New(st.brokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	resp, err := http.Get("http://" + srv.Addr() + "/search?q=chicken+recipe")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var results []core.Result
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	// Missing q.
	resp2, err := http.Get("http://" + srv.Addr() + "/search")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp2.StatusCode)
	}
}

// A proxy that evicts the broker's session (here: session table of size 1
// overwritten by another client) must not surface an error: the broker
// re-attests and retries transparently.
func TestSearchRecoversFromSessionLoss(t *testing.T) {
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	engineSrv := searchengine.NewServer(engine)
	if err := engineSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engineSrv.Shutdown(ctx)
	}()
	p, err := proxy.New(proxy.Config{
		K:           1,
		Engines:     []proxy.EngineSpec{{Host: engineSrv.Addr()}},
		Seed:        1,
		MaxSessions: 1, // any second handshake evicts the first session
	})
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
	cfg := Config{
		ProxyURL:   p.URL(),
		ServiceKey: p.AttestationService().PublicKey(),
		Policy: attestation.Policy{
			AcceptedMeasurements: []enclave.Measurement{p.Measurement()},
		},
	}
	b1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Search(context.Background(), "chicken recipe"); err != nil {
		t.Fatal(err)
	}
	// A second client takes the only session slot.
	b2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	// b1's session is gone; Search must still succeed via re-attestation.
	if _, err := b1.Search(context.Background(), "mortgage rates"); err != nil {
		t.Fatalf("Search did not recover from session loss: %v", err)
	}
	if got := p.Stats().Handshakes; got != 3 {
		t.Errorf("handshakes = %d, want 3 (b1, b2, b1-recovery)", got)
	}
}

// TestHTTPSecureCallAllocBudget is the allocation gate on one secure search
// over the HTTP edge — the benchmark's `repeat` request: broker seal → POST
// /secure → "request" ecall answered from the warm cache → a sealed
// 20-result reply read once and decoded without reflection. Both
// processes' share is counted; net/http is most of it (with the JSON
// envelope and encoding/json on both sides: 225; PR 20: 121; with the record
// sealed in its frame and opened in a pooled read buffer: 114; with the
// session id read where the body holds it, on the edge and in the enclave:
// 111).
func TestHTTPSecureCallAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	st := newStackWith(t, proxy.Config{K: 2, Seed: 1, CacheBytes: 1 << 20, CacheTTL: time.Hour})
	b, err := New(st.brokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	// A single-engine stack on a cold history sends the first query bare,
	// so its whole list survives the filter.
	const query = "chicken recipe dinner"
	search := func() {
		results, err := b.Search(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 20 {
			t.Fatalf("%d results, want a 20-result list", len(results))
		}
	}
	for i := 0; i < 20; i++ {
		search() // fill the cache, the conn pool and every lazily sized buffer
	}
	if s := st.proxy.Stats(); s.CacheHits < 19 {
		t.Fatalf("cache hits = %d: the searches are not answered from the cache", s.CacheHits)
	}
	const budget = 111
	got := testing.AllocsPerRun(200, search)
	t.Logf("one secure search over the HTTP edge: %.1f allocations", got)
	if got > budget {
		t.Errorf("one secure search over the HTTP edge: %.1f allocations, budget %d", got, budget)
	}
}

// A reply is opened and parsed in a pooled read buffer that the next search
// overwrites; the results handed out must not live in it.
func TestResultsOutliveTheirReadBuffer(t *testing.T) {
	st := newStack(t)
	b, err := New(st.brokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	first, err := b.Search(ctx, "chicken recipe dinner")
	if err != nil || len(first) == 0 {
		t.Fatalf("first search: %d results, %v", len(first), err)
	}
	want := string(core.AppendResultsJSON(nil, first))
	// A second search reads a different reply into the buffer that went
	// back to the pool.
	if second, err := b.Search(ctx, "mortgage refinance rates"); err != nil || len(second) == 0 {
		t.Fatalf("second search: %d results, %v", len(second), err)
	}
	if got := string(core.AppendResultsJSON(nil, first)); got != want {
		t.Errorf("the first search's results changed under the second:\n got %s\nwant %s", got, want)
	}
}

// A Byzantine proxy cannot make the broker buffer an unbounded reply: one
// declared over the cap is refused before a byte of it is read or
// allocated, one that simply keeps coming is cut at the cap.
func TestReplyOverCapIsAnErrorNotAnAllocation(t *testing.T) {
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/secure" {
			w.Header().Set("Content-Length", strconv.Itoa(1<<30))
			_, _ = w.Write([]byte("the first of a gigabyte"))
			return
		}
		chunk := make([]byte, 64<<10)
		for sent := 0; sent <= maxReplyBytes; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			w.(http.Flusher).Flush()
		}
	}))
	defer hostile.Close()
	h := &httpCaller{url: hostile.URL, client: http.DefaultClient}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := h.Call(context.Background(), mux.KindSecure, []byte("body"), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, serve.ErrBodyTooLarge) {
		t.Errorf("declared 1 GiB reply: err = %v, want ErrBodyTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing a declared 1 GiB reply allocated %d bytes", grew)
	}
	if _, err := h.Call(context.Background(), mux.KindHandshake, []byte("{}"), nil); !errors.Is(err, serve.ErrBodyTooLarge) {
		t.Errorf("undeclared reply past the cap: err = %v, want ErrBodyTooLarge", err)
	}
}
