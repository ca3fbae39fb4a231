package proxy

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/obs"
	"xsearch/internal/searchengine"
)

// Tests for in-enclave TLS on the async pipeline: every socket operation
// of a pinned-root HTTPS fetch rides the switchless "tls_step" ocall
// while handshake and record crypto stay trusted.

// newTLSDelayEngine boots an HTTPS engine whose per-request delay reads
// an atomic (tests flip it mid-run to outlast a caller's deadline and then
// serve it fast again). Returns the server
// and its root PEM for pinning.
func newTLSDelayEngine(t *testing.T, delay *atomic.Int64) (*searchengine.Server, []byte) {
	t.Helper()
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))
	srv := searchengine.NewServer(engine)
	if delay != nil {
		srv.DelayFn = func() time.Duration { return time.Duration(delay.Load()) }
	}
	cert, pem, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
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
	return srv, pem
}

func newAsyncTLSProxy(t *testing.T, mutate func(*Config), engines ...EngineSpec) *Proxy {
	t.Helper()
	return newStageProxy(t, true, mutate, engines...)
}

func TestAsyncTLSFetch(t *testing.T) {
	srv, pem := newTLSDelayEngine(t, nil)
	p := newAsyncTLSProxy(t, func(c *Config) { c.Observability = true },
		EngineSpec{Host: srv.Addr(), RootsPEM: pem})

	for i := 0; i < 6; i++ {
		results, err := p.ServeQuery(context.Background(), fmt.Sprintf("chicken recipe %d", i))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(results) == 0 {
			t.Fatalf("query %d: no results over async enclave TLS", i)
		}
	}
	s := p.Stats()
	if s.AsyncSubmitted == 0 {
		t.Fatal("no async submissions: the TLS fetch bypassed the pipeline")
	}
	// Keep-alive pooling carries the trusted TLS session across queries.
	var up UpstreamStats
	for _, u := range s.Upstreams {
		up = u
	}
	if up.PoolReuses == 0 {
		t.Errorf("no TLS session reuse across queries: %+v", up)
	}
	// The handshake stage must have recorded trusted-side observations.
	if s.Stages[obs.StageTLSHandshake].Count == 0 {
		t.Errorf("handshake stage recorded nothing: %+v", s.Stages)
	}
	assertEPCInvariant(t, p)
}

// Batched stage-1 submission and TLS flights compose: the batch ecall
// bursts several first steps, each request then ping-pongs its own
// flight.
func TestAsyncTLSBatchedFetch(t *testing.T) {
	srv, pem := newTLSDelayEngine(t, nil)
	p := newAsyncTLSProxy(t, func(c *Config) { c.BatchMax = 4 }, EngineSpec{Host: srv.Addr(), RootsPEM: pem})

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.ServeQuery(context.Background(), fmt.Sprintf("batched tls query %d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if s := p.Stats(); s.BatchesSubmitted == 0 {
		t.Error("no batches submitted: the test did not exercise batching")
	}
	assertEPCInvariant(t, p)
}

// Session-reuse churn: concurrent queries checking trusted TLS sessions
// in and out of a small pool, racing terminal resumes, close steps, and
// fresh dials. Everything must complete and the pool gauges must show
// actual reuse.
func TestAsyncTLSSessionReuseChurn(t *testing.T) {
	srv, pem := newTLSDelayEngine(t, nil)
	p := newAsyncTLSProxy(t, func(c *Config) { c.PoolSize = 2 },
		EngineSpec{Host: srv.Addr(), RootsPEM: pem})

	const workers = 8
	const perWorker = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := p.ServeQuery(context.Background(),
					fmt.Sprintf("churn w%d q%d", w, i)); err != nil {
					errCh <- fmt.Errorf("w%d q%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	s := p.Stats()
	var up UpstreamStats
	for _, u := range s.Upstreams {
		up = u
	}
	if up.PoolReuses == 0 {
		t.Errorf("no TLS session reuse under churn: %+v", up)
	}
	if up.PoolIdle > 2 {
		t.Errorf("pool over capacity: %d idle (max 2)", up.PoolIdle)
	}
	assertEPCInvariant(t, p)
}

// --- hostile TLS engines (satellite of the ciphertext-is-untrusted rule:
// everything the host relays is attacker-controlled) ---

// hostileTLSEngine accepts TCP connections and hands each to script.
func hostileTLSEngine(t *testing.T, script func(net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go script(conn)
		}
	}()
	return ln
}

// somePEM returns a syntactically valid root to pin against engines that
// will never complete a handshake anyway.
func somePEM(t *testing.T) []byte {
	t.Helper()
	_, pem, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	return pem
}

// assertTLSFailureAccounting drives one query against a single hostile
// upstream on both transports and checks the shared contract: the query
// fails without panicking, within bound, the breaker counts EXACTLY one
// failure for the one attempt, and the EPC invariant holds after the
// wreckage is swept.
func assertTLSFailureAccounting(t *testing.T, addr string, pem []byte, async bool) {
	t.Helper()
	p, err := New(Config{
		K:            1,
		Seed:         1,
		Engines:      []EngineSpec{{Host: addr, RootsPEM: pem}},
		AsyncOcalls:  async,
		FetchTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	start := time.Now()
	_, err = p.ServeQuery(context.Background(), "query for a hostile engine")
	if err == nil {
		t.Fatalf("async=%t: query against hostile TLS engine succeeded", async)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("async=%t: failed only after %v: FetchTimeout did not bound the handshake", async, elapsed)
	}
	s := p.Stats()
	if len(s.Upstreams) != 1 || s.Upstreams[0].Failures != 1 {
		t.Fatalf("async=%t: breaker counted %+v, want exactly 1 failure", async, s.Upstreams)
	}
	assertEPCInvariant(t, p)
}

// Truncated handshake: the engine sends half a ServerHello record and
// slams the connection.
func TestHostileTLSTruncatedHandshake(t *testing.T) {
	ln := hostileTLSEngine(t, func(c net.Conn) {
		buf := make([]byte, 1024)
		_, _ = c.Read(buf) // swallow the ClientHello
		// Record header promising 64 bytes of handshake, then 10 bytes.
		_, _ = c.Write([]byte{0x16, 0x03, 0x03, 0x00, 0x40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
		_ = c.Close()
	})
	pem := somePEM(t)
	for _, async := range []bool{false, true} {
		assertTLSFailureAccounting(t, ln.Addr().String(), pem, async)
	}
}

// Record bomb: a record header declaring the maximum length crypto/tls
// will refuse, followed by garbage. The enclave must reject it at the
// record layer without buffering the promised payload.
func TestHostileTLSOversizedRecord(t *testing.T) {
	ln := hostileTLSEngine(t, func(c net.Conn) {
		buf := make([]byte, 1024)
		_, _ = c.Read(buf)
		// 0xFFFF-byte record: over the TLS ceiling; stream garbage after.
		_, _ = c.Write([]byte{0x16, 0x03, 0x03, 0xff, 0xff})
		junk := make([]byte, 4096)
		for {
			if _, err := c.Write(junk); err != nil {
				return
			}
		}
	})
	pem := somePEM(t)
	for _, async := range []bool{false, true} {
		assertTLSFailureAccounting(t, ln.Addr().String(), pem, async)
	}
}

// Slow-loris handshake: the engine dribbles one byte at a time, forever.
// Only the FetchTimeout deadline (now spanning the handshake on both
// paths) gets the request back.
func TestHostileTLSSlowLorisHandshake(t *testing.T) {
	ln := hostileTLSEngine(t, func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 1024)
		_, _ = c.Read(buf)
		drip := []byte{0x16, 0x03, 0x03, 0x00, 0x40}
		for _, b := range drip {
			if _, err := c.Write([]byte{b}); err != nil {
				return
			}
			time.Sleep(80 * time.Millisecond)
		}
		// Then nothing, holding the socket open.
		time.Sleep(10 * time.Second)
	})
	pem := somePEM(t)
	for _, async := range []bool{false, true} {
		assertTLSFailureAccounting(t, ln.Addr().String(), pem, async)
	}
}

// Cert mismatch under failover: a wrong-cert primary is an ordinary
// failing upstream — requests fail over to the healthy HTTPS engine and
// the mismatch is charged to the primary's breaker.
func TestHostileTLSCertMismatchFailover(t *testing.T) {
	badSrv, _ := newTLSDelayEngine(t, nil) // presents its own cert...
	goodSrv, goodPEM := newTLSDelayEngine(t, nil)
	wrongPin := somePEM(t) // ...but the enclave pins a different root
	p := newAsyncTLSProxy(t, func(c *Config) {
		c.UpstreamFailThreshold = 2
		c.UpstreamCooldown = time.Minute
	},
		EngineSpec{Host: badSrv.Addr(), RootsPEM: wrongPin, Weight: 4},
		EngineSpec{Host: goodSrv.Addr(), RootsPEM: goodPEM, Weight: 1},
	)

	for i := 0; i < 8; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("failover tls query %d", i)); err != nil {
			t.Fatalf("query %d: %v (the healthy HTTPS upstream should have answered)", i, err)
		}
		assertEPCInvariant(t, p)
	}
	s := p.Stats()
	var bad, good UpstreamStats
	for _, u := range s.Upstreams {
		if u.Host == badSrv.Addr() {
			bad = u
		} else {
			good = u
		}
	}
	if bad.Failures == 0 {
		t.Fatalf("cert-mismatch upstream recorded no failures: %+v", s.Upstreams)
	}
	if !bad.CoolingDown {
		t.Fatalf("cert-mismatch upstream's breaker never opened: %+v", bad)
	}
	if good.Served == 0 {
		t.Fatalf("healthy HTTPS upstream served nothing: %+v", s.Upstreams)
	}
}
