package proxy

import (
	"bufio"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// stubEnv satisfies enclave.Env for pool unit tests, routing ocalls to a
// real connTable (and thus real loopback sockets) without building an
// enclave.
type stubEnv struct {
	handlers map[string]func([]byte) ([]byte, error)
}

func newStubEnv(ct *connTable) *stubEnv { return &stubEnv{handlers: ct.handlers()} }

func (s *stubEnv) OCall(name string, arg []byte) ([]byte, error) {
	h, ok := s.handlers[name]
	if !ok {
		return nil, fmt.Errorf("stub: unknown ocall %q", name)
	}
	return h(arg)
}
func (s *stubEnv) OCallAsync(name string, arg []byte) (uint64, error) {
	return 0, fmt.Errorf("stub: async ocalls not supported")
}
func (s *stubEnv) Alloc(int64) error { return nil }
func (s *stubEnv) Free(int64)        {}
func (s *stubEnv) Read(buf []byte) error {
	_, err := rand.Read(buf)
	return err
}

// poolFixture is a loopback listener plus the runtime/env pair the pool's
// blocking stepper needs; accepted server-side conns are retained for the
// tests to kill.
type poolFixture struct {
	ln net.Listener
	ct *connTable
	st ocallStepper

	mu       sync.Mutex
	accepted []net.Conn
}

func newPoolFixture(t *testing.T) *poolFixture {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &poolFixture{ln: ln, ct: newConnTable(nil)}
	f.st = ocallStepper{newStubEnv(f.ct)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.accepted = append(f.accepted, conn)
			f.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		f.ct.closeAll()
	})
	return f
}

// dial opens a pooled-style session through the sock_connect ocall.
func (f *poolFixture) dial(t *testing.T) *idleConn {
	t.Helper()
	fd, err := ocallConnect(f.st.env, f.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := &stepConn{st: f.st, connID: fd, live: true}
	return &idleConn{rw: sc, sc: sc, br: bufio.NewReader(sc)}
}

// checkout and checkin drive the upstream's pool the way the blocking
// stage does: probe through sock_check, close victims through close ocalls.
func (f *poolFixture) checkout(u *upstream) *idleConn {
	ic, closes := u.checkout(f.st, time.Now())
	f.st.close(closes)
	return ic
}

func (f *poolFixture) checkin(u *upstream, ic *idleConn) {
	f.st.close(u.checkinIdle(ic, time.Now()))
}

// fdClosed reports whether the runtime's socket table no longer holds fd.
func (f *poolFixture) fdClosed(fd uint64) bool {
	f.ct.mu.Lock()
	defer f.ct.mu.Unlock()
	_, ok := f.ct.conns[int64(fd)]
	return !ok
}

// firstAccepted waits for the server side of the first dialled conn (the
// accept goroutine records it some time after the dial returns).
func (f *poolFixture) firstAccepted(t *testing.T) net.Conn {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		f.mu.Lock()
		accepted := f.accepted
		f.mu.Unlock()
		if len(accepted) > 0 {
			return accepted[0]
		}
		if time.Now().After(deadline) {
			t.Fatal("server never accepted")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRejected checks ic out and back in until the probe sees what the
// test did to its socket and the pool drops it.
func (f *poolFixture) waitRejected(t *testing.T, u *upstream, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := f.checkout(u)
		if got == nil {
			return // the probe found it and dropped it
		}
		f.checkin(u, got) // not yet visible: put it back and retry
		if time.Now().After(deadline) {
			t.Fatalf("%s connection kept passing the health check", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func poolStats(u *upstream) UpstreamStats { return u.stats(time.Now(), 1) }

func TestPoolCheckoutEmpty(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 2, idleTTL: time.Minute}
	if c := f.checkout(u); c != nil {
		t.Fatalf("empty pool returned %+v", c)
	}
	if s := poolStats(u); s.PoolReuses != 0 || s.PoolEvicted != 0 || s.PoolIdle != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPoolCheckinCheckoutReuse(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 2, idleTTL: time.Minute}
	c := f.dial(t)
	u.poolDials.Add(1)
	f.checkin(u, c)
	if got := f.checkout(u); got != c {
		t.Fatalf("checkout = %+v, want fd %d", got, c.sc.connID)
	}
	s := poolStats(u)
	if s.PoolReuses != 1 || s.PoolDials != 1 || s.PoolEvicted != 0 {
		t.Errorf("stats = %d/%d/%d", s.PoolReuses, s.PoolDials, s.PoolEvicted)
	}
	if s.PoolReuseRatio != 0.5 {
		t.Errorf("reuse ratio = %f", s.PoolReuseRatio)
	}
}

// The pool prefers the freshest connection (LIFO) and evicts the oldest
// (FIFO) when full.
func TestPoolCapacityFIFOEviction(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 2, idleTTL: time.Minute}
	c1, c2, c3 := f.dial(t), f.dial(t), f.dial(t)
	f.checkin(u, c1)
	f.checkin(u, c2)
	f.checkin(u, c3) // overflows: c1 (oldest) evicted
	if n := poolStats(u).PoolIdle; n != 2 {
		t.Fatalf("pool size = %d", n)
	}
	if !f.fdClosed(c1.sc.connID) {
		t.Error("FIFO victim's socket still open in the runtime")
	}
	if f.fdClosed(c2.sc.connID) || f.fdClosed(c3.sc.connID) {
		t.Error("surviving pooled sockets were closed")
	}
	if got := f.checkout(u); got != c3 {
		t.Errorf("checkout = %+v, want freshest fd %d", got, c3.sc.connID)
	}
	if evicted := poolStats(u).PoolEvicted; evicted != 1 {
		t.Errorf("evicted = %d", evicted)
	}
}

func TestPoolIdleEviction(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 4, idleTTL: 5 * time.Millisecond}
	c := f.dial(t)
	f.checkin(u, c)
	time.Sleep(20 * time.Millisecond)
	if got := f.checkout(u); got != nil {
		t.Fatalf("idle-expired connection returned: %+v", got)
	}
	if !f.fdClosed(c.sc.connID) {
		t.Error("idle-expired socket still open")
	}
	if evicted := poolStats(u).PoolEvicted; evicted != 1 {
		t.Errorf("evicted = %d", evicted)
	}
}

// A pooled connection whose peer closed it must fail the checkout health
// check and be discarded, not handed to a request.
func TestPoolDropsDeadConnections(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 2, idleTTL: time.Minute}
	c := f.dial(t)
	f.checkin(u, c)

	// Kill the server side — once the accept goroutine has recorded it —
	// and wait for the FIN to land.
	_ = f.firstAccepted(t).Close()
	f.waitRejected(t, u, "dead")
	if !f.fdClosed(c.sc.connID) {
		t.Error("dead pooled socket not closed")
	}
	if evicted := poolStats(u).PoolEvicted; evicted != 1 {
		t.Errorf("evicted = %d", evicted)
	}
}

// Leftover unread bytes (a desynced HTTP exchange) must also fail the
// health check: reusing such a connection would misframe the next
// response.
func TestPoolRejectsDesyncedConnection(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 2, idleTTL: time.Minute}
	f.checkin(u, f.dial(t))

	// The server writes stray bytes the client never consumed.
	if _, err := f.firstAccepted(t).Write([]byte("stray")); err != nil {
		t.Fatal(err)
	}
	f.waitRejected(t, u, "desynced")
}

func TestPoolConcurrentCheckoutCheckin(t *testing.T) {
	f := newPoolFixture(t)
	u := &upstream{maxIdle: 4, idleTTL: time.Minute}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := f.checkout(u)
				if c == nil {
					c = f.dial(t)
					u.poolDials.Add(1)
				}
				f.checkin(u, c)
			}
		}()
	}
	wg.Wait()
	s := poolStats(u)
	if s.PoolIdle > 4 {
		t.Errorf("pool overflowed: %d idle", s.PoolIdle)
	}
	if s.PoolReuses+s.PoolDials != 400 {
		t.Errorf("checkouts = %d, want 400", s.PoolReuses+s.PoolDials)
	}
	if s.PoolReuses == 0 {
		t.Error("concurrent churn never reused a connection")
	}
}

// --- end-to-end: pool and cache through the full proxy stack ---

func TestPooledFetchReusesConnections(t *testing.T) {
	st := newTestStack(t, nil) // pooling is on by default
	for i := 0; i < 5; i++ {
		plainSearch(t, st.proxy.URL(), fmt.Sprintf("chicken recipe %d", i))
	}
	s := st.proxy.Stats()
	if s.PoolReuses == 0 {
		t.Errorf("no pooled reuse across sequential queries: %+v", s)
	}
	if s.PoolReuseRatio <= 0 {
		t.Errorf("reuse ratio = %f", s.PoolReuseRatio)
	}
	if s.PoolDials == 0 {
		t.Error("first query cannot have been pooled")
	}
}

func TestPoolDisabledDialsPerRequest(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.PoolSize = -1 })
	for i := 0; i < 3; i++ {
		plainSearch(t, st.proxy.URL(), "chicken recipe")
	}
	s := st.proxy.Stats()
	if s.PoolReuses != 0 || s.PoolDials != 0 || s.PoolIdle != 0 {
		t.Errorf("disabled pool reported activity: %+v", s)
	}
	if s.CacheHits != 0 {
		t.Errorf("three repeats on a proxy with no cache reported cache hits: %+v", s)
	}
}

func TestCacheServesRepeatsWithoutEngine(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.CacheBytes = 1 << 20 })
	first := plainSearch(t, st.proxy.URL(), "chicken recipe dinner")
	seen := len(st.engine.QueryLog())
	second := plainSearch(t, st.proxy.URL(), "chicken recipe dinner")
	if got := len(st.engine.QueryLog()); got != seen {
		t.Errorf("engine saw %d queries after repeat, want %d (cache hit)", got, seen)
	}
	if len(first) != len(second) {
		t.Errorf("cached results differ: %d vs %d", len(first), len(second))
	}
	s := st.proxy.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d", s.CacheHits, s.CacheMisses)
	}
	if s.CacheHitRatio != 0.5 {
		t.Errorf("hit ratio = %f", s.CacheHitRatio)
	}
}

// The cache's EPC contract: every cached byte is charged to the enclave
// heap, so heap == history + cache + index exactly (nothing else allocates).
func TestCacheChargedToEPC(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.CacheBytes = 1 << 20 })
	for i := 0; i < 4; i++ {
		plainSearch(t, st.proxy.URL(), fmt.Sprintf("distinct cached query %d", i))
	}
	s := st.proxy.Stats()
	if s.CacheB == 0 {
		t.Fatal("cache stored nothing")
	}
	if s.Enclave.HeapBytes != s.HistoryB+s.CacheB+s.IndexB {
		t.Errorf("heap %d != history %d + cache %d",
			s.Enclave.HeapBytes, s.HistoryB, s.CacheB)
	}
}

func TestCacheExpiryRefetches(t *testing.T) {
	st := newTestStack(t, func(c *Config) {
		c.CacheBytes = 1 << 20
		c.CacheTTL = 30 * time.Millisecond
	})
	plainSearch(t, st.proxy.URL(), "chicken recipe")
	seen := len(st.engine.QueryLog())
	time.Sleep(50 * time.Millisecond)
	plainSearch(t, st.proxy.URL(), "chicken recipe")
	if got := len(st.engine.QueryLog()); got == seen {
		t.Error("expired entry served from cache")
	}
	s := st.proxy.Stats()
	if s.CacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (second lookup expired)", s.CacheMisses)
	}
	// Lazy expiry freed the stale entry's bytes before re-inserting: the
	// heap identity must still hold.
	if s.Enclave.HeapBytes != s.HistoryB+s.CacheB+s.IndexB {
		t.Errorf("heap %d != history %d + cache %d after expiry",
			s.Enclave.HeapBytes, s.HistoryB, s.CacheB)
	}
}

// Different result counts must not share cache entries: a count-10 reply
// served for a count-3 request would leak the wrong list length.
func TestCacheKeyIncludesCount(t *testing.T) {
	if cacheKey("q", 10) == cacheKey("q", 3) {
		t.Error("cache key ignores result count")
	}
	if cacheKey("a", 1) == cacheKey("b", 1) {
		t.Error("cache key ignores query")
	}
}
