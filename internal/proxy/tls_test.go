package proxy

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"xsearch/internal/searchengine"
)

// tlsStack boots an HTTPS engine and a proxy whose enclave terminates TLS
// over the socket ocalls — the paper's footnote-2 configuration.
func tlsStack(t *testing.T, startProxy bool) (*searchengine.Server, *Proxy) {
	t.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	cert, certPEM, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.StartTLS("127.0.0.1:0", cert); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	p, err := New(Config{
		K:       1,
		Engines: []EngineSpec{{Host: srv.Addr(), RootsPEM: certPEM}},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if startProxy {
		if err := p.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = p.Shutdown(ctx)
		})
	}
	return srv, p
}

func TestEnclaveTLSToEngine(t *testing.T) {
	_, p := tlsStack(t, true)
	results, err := p.ServeQuery(context.Background(), "chicken recipe dinner")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results over enclave TLS")
	}
}

// Pin a DIFFERENT certificate than the engine presents: the enclave must
// refuse the connection on either stage and charge the upstream's breaker.
func TestEnclaveTLSRejectsUnknownCA(t *testing.T) {
	forEachStage(t, func(t *testing.T, async bool) {
		srv, _ := newTLSDelayEngine(t, nil)
		p := newStageProxy(t, async, nil, EngineSpec{Host: srv.Addr(), RootsPEM: somePEM(t)})
		_, err := p.ServeQuery(context.Background(), "chicken recipe")
		if err == nil {
			t.Fatal("enclave accepted engine with unpinned certificate")
		}
		if !strings.Contains(err.Error(), "TLS") && !strings.Contains(err.Error(), "certificate") {
			t.Errorf("unexpected error: %v", err)
		}
		s := p.Stats()
		if len(s.Upstreams) != 1 || s.Upstreams[0].Failures == 0 {
			t.Errorf("cert mismatch not counted against the breaker: %+v", s.Upstreams)
		}
		assertEPCInvariant(t, p)
	})
}

func TestEngineCertChangesMeasurement(t *testing.T) {
	srv, p1 := tlsStack(t, false)
	defer p1.encl.Destroy()
	_, pem2, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr(), RootsPEM: pem2}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.encl.Destroy()
	if p1.Measurement() == p2.Measurement() {
		t.Error("different pinned CA must change MRENCLAVE")
	}
}

func TestBadEngineCertRejected(t *testing.T) {
	if _, err := New(Config{K: 1, Engines: []EngineSpec{{Host: "127.0.0.1:9", RootsPEM: []byte("not a pem")}}}); err == nil {
		t.Error("garbage PEM accepted")
	}
}

// Plain-HTTP engines keep working when no CA is pinned (regression guard
// for the refactored fetch path).
func TestPlainHTTPStillWorks(t *testing.T) {
	st := newTestStack(t, nil)
	resp, err := http.Get(st.proxy.URL() + "/search?q=chicken+recipe")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
