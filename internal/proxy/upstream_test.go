package proxy

import (
	"context"
	"testing"
	"time"

	"xsearch/internal/searchengine"
)

func startEngine(t *testing.T, seed uint64) *searchengine.Server {
	t.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: seed})))
	srv := searchengine.NewServer(engine)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("engine: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// TestUpstreamStatsSortedByHost pins the deterministic ordering contract:
// however the engines were configured, Stats.Upstreams comes back sorted
// by host so snapshots diff cleanly.
func TestUpstreamStatsSortedByHost(t *testing.T) {
	srvA := startEngine(t, 1)
	srvB := startEngine(t, 2)
	srvC := startEngine(t, 3)
	// Feed the hosts in both orders; the stats order must not change.
	for _, hosts := range [][]string{
		{srvA.Addr(), srvB.Addr(), srvC.Addr()},
		{srvC.Addr(), srvA.Addr(), srvB.Addr()},
	} {
		specs := make([]EngineSpec, len(hosts))
		for i, h := range hosts {
			specs[i] = EngineSpec{Host: h}
		}
		p, err := New(Config{K: 2, Engines: specs, Seed: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		st := p.Stats()
		for i := 1; i < len(st.Upstreams); i++ {
			if st.Upstreams[i-1].Host >= st.Upstreams[i].Host {
				t.Fatalf("Upstreams not sorted by host: %+v", st.Upstreams)
			}
		}
		shutdownProxy(t, p)
	}
}

func queryN(prefix string, i int) string {
	return prefix + " query " + string(rune('a'+i))
}

func shutdownProxy(t *testing.T, p *Proxy) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = p.Shutdown(ctx)
}
