package proxy

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/searchengine"
)

// The engine exchange is one implementation under both engine stages, so
// what a hostile or flaky engine can do to it is checked once and run on
// each: these helpers are the {blocking, async} × {plain, TLS} matrix.

// forEachStage runs fn as a "blocking" and an "async" subtest.
func forEachStage(t *testing.T, fn func(t *testing.T, async bool)) {
	for _, async := range []bool{false, true} {
		name := "blocking"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) { fn(t, async) })
	}
}

// forEachTransport runs fn as "plain" and "tls" subtests of every stage;
// withTLS tells fn to put its engine behind TLS and pin the root.
func forEachTransport(t *testing.T, fn func(t *testing.T, async, withTLS bool)) {
	forEachStage(t, func(t *testing.T, async bool) {
		t.Run("plain", func(t *testing.T) { fn(t, async, false) })
		t.Run("tls", func(t *testing.T) { fn(t, async, true) })
	})
}

// newStageProxy builds a proxy on the given engine stage; it is crashed at
// cleanup.
func newStageProxy(t *testing.T, async bool, mutate func(*Config), engines ...EngineSpec) *Proxy {
	t.Helper()
	cfg := Config{K: 1, Seed: 1, Engines: engines, AsyncOcalls: async}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Crash)
	return p
}

// hangUpEngine answers every request with a well-framed keep-alive
// response and then hangs up — what an engine reaping idle connections
// looks like to a pool that came back a moment too late. With withTLS it
// serves TLS and returns the root to pin.
func hangUpEngine(t *testing.T, withTLS bool) EngineSpec {
	t.Helper()
	var conf *tls.Config
	var spec EngineSpec
	if withTLS {
		cert, pem, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		conf, spec.RootsPEM = &tls.Config{Certificates: []tls.Certificate{cert}}, pem
	}
	ln := hostileTLSEngine(t, func(c net.Conn) {
		defer c.Close()
		if conf != nil {
			c = tls.Server(c, conf)
		}
		buf := make([]byte, 4096)
		if _, err := c.Read(buf); err != nil {
			return
		}
		_, _ = c.Write([]byte("HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n[]"))
	})
	spec.Host = ln.Addr().String()
	return spec
}

// A pooled connection the engine hung up on is not the upstream failing:
// whether the probe catches it (blocking) or its first step does (the one
// stale retry), every query is answered on a fresh dial and the breaker is
// never charged.
func TestStaleKeepAliveRedialsWithoutFailure(t *testing.T) {
	const n = 6
	forEachTransport(t, func(t *testing.T, async, withTLS bool) {
		p := newStageProxy(t, async, nil, hangUpEngine(t, withTLS))
		for i := 0; i < n; i++ {
			if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("stale query %d", i)); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		u := p.Stats().Upstreams[0]
		if u.Failures != 0 {
			t.Errorf("stale keep-alive conns charged the breaker: %+v", u)
		}
		if u.PoolDials != n {
			t.Errorf("dials = %d, want %d (every query's conn was hung up on): %+v", u.PoolDials, n, u)
		}
		// Each query after the first met the previous one's dead conn: the
		// probe evicted it, or it was reused, failed and retried. (Under
		// TLS the engine's close_notify can also keep the conn out of the
		// pool altogether.)
		if met := u.PoolReuses + u.PoolEvicted; met > n-1 || (!withTLS && met != n-1) {
			t.Errorf("reuses %d + evictions %d, want %d: %+v", u.PoolReuses, u.PoolEvicted, n-1, u)
		}
		assertEPCInvariant(t, p)
	})
}

// What the async stage is for, as a count: a blocking fetch pins the
// enclave thread it runs on, a parked one gives it back. On ONE TCS the
// engine therefore sees the blocking stage's queries strictly one at a
// time, while the async stage's all sit inside it together — the handler
// does not answer until every caller's query has arrived, which only a
// released TCS allows.
func TestEngineStageHoldsOrReleasesTCS(t *testing.T) {
	const callers = 3
	forEachStage(t, func(t *testing.T, async bool) {
		var inside, peak atomic.Int64
		var once sync.Once
		all := make(chan struct{})
		_, srv := newHookedEngine(t, func() time.Duration {
			n := inside.Add(1)
			defer inside.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if !async {
				time.Sleep(10 * time.Millisecond)
				return 0
			}
			if n == callers {
				once.Do(func() { close(all) })
			}
			select {
			case <-all:
			case <-time.After(2 * time.Second):
			}
			return 0
		})
		p := newStageProxy(t, async, func(c *Config) {
			c.EnclaveConfig = enclave.Config{TCSCount: 1}
		}, EngineSpec{Host: srv.Addr()})

		var wg sync.WaitGroup
		errs := make([]error, callers)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = p.ServeQuery(context.Background(), fmt.Sprintf("tcs query %d", i))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}
		switch got := peak.Load(); {
		case async && got < callers:
			t.Errorf("at most %d of %d queries were inside the engine at once on 1 TCS: a parked fetch still pins its thread", got, callers)
		case !async && got != 1:
			t.Errorf("%d queries were inside the engine at once on 1 TCS: the blocking fetch let go of its thread", got)
		}
		assertEPCInvariant(t, p)
	})
}
