package xsearch_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"xsearch"
)

// fullStack boots engine + proxy + attested client through the public API
// only — exactly what a downstream user writes.
func fullStack(t *testing.T) (*xsearch.Engine, *xsearch.Proxy, *xsearch.Client) {
	t.Helper()
	engine := xsearch.NewEngine(xsearch.WithCorpusSize(20), xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	})

	proxy, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(2),
		xsearch.WithProxySeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = proxy.Shutdown(ctx)
	})

	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(proxy.Measurement()),
		xsearch.WithAttestationKey(proxy.AttestationKey()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	return engine, proxy, client
}

func TestPublicAPIEndToEnd(t *testing.T) {
	engine, proxy, client := fullStack(t)
	if !client.Connected() {
		t.Fatal("client not connected")
	}
	// Warm history, then search.
	for _, q := range []string{"mortgage rates", "garden roses"} {
		if _, err := client.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	results, err := client.Search(context.Background(), "chicken recipe dinner")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// The curious engine never saw the bare query once history is warm.
	for _, l := range engine.QueryLog()[1:] {
		if l.Query == "chicken recipe dinner" {
			t.Error("engine saw unobfuscated query")
		}
		if !strings.Contains(l.Query, " OR ") {
			t.Errorf("engine saw non-OR query %q", l.Query)
		}
	}
	st := proxy.Stats()
	if st.Requests == 0 || st.HistoryLen == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPublicAPIAsyncPipeline runs the full attested stack over the async
// ocall pipeline with hedging armed: the secured search path must behave
// identically to the blocking one from a client's point of view.
func TestPublicAPIAsyncPipeline(t *testing.T) {
	engine := xsearch.NewEngine(xsearch.WithCorpusSize(20), xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	})
	proxy, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(2),
		xsearch.WithProxySeed(1),
		xsearch.WithAsyncOcalls(16),
		xsearch.WithHedging(50*time.Millisecond, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = proxy.Shutdown(ctx)
	})
	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(proxy.Measurement()),
		xsearch.WithAttestationKey(proxy.AttestationKey()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"mortgage rates", "garden roses", "chicken recipe dinner"} {
		if _, err := client.Search(context.Background(), q); err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
	}
	st := proxy.Stats()
	if st.AsyncSubmitted == 0 {
		t.Error("async pipeline never engaged")
	}
	if st.Enclave.HeapBytes != st.HistoryB+st.CacheB+st.IndexB {
		t.Errorf("EPC invariant broken: heap=%d history=%d cache=%d",
			st.Enclave.HeapBytes, st.HistoryB, st.CacheB)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := xsearch.NewProxy(xsearch.WithFakeQueries(-1), xsearch.WithEchoMode()); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := xsearch.NewProxy(); err == nil {
		t.Error("proxy without engine host accepted")
	}
	if _, err := xsearch.NewClient(""); err == nil {
		t.Error("client without URL accepted")
	}
}

func TestEchoModeProxyPublicAPI(t *testing.T) {
	proxy, err := xsearch.NewProxy(xsearch.WithEchoMode(), xsearch.WithProxySeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = proxy.Shutdown(ctx)
	}()
	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(proxy.Measurement()),
		xsearch.WithAttestationKey(proxy.AttestationKey()),
		xsearch.WithResultCount(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	results, err := client.Search(context.Background(), "any query")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("echo mode returned %d results", len(results))
	}
}

func TestWrongMeasurementRejected(t *testing.T) {
	proxy, err := xsearch.NewProxy(xsearch.WithEchoMode(), xsearch.WithProxySeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = proxy.Shutdown(ctx)
	}()
	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(xsearch.Measurement{0xBA, 0xD0}),
		xsearch.WithAttestationKey(proxy.AttestationKey()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(context.Background()); err == nil {
		t.Fatal("client connected to untrusted enclave")
	}
}
