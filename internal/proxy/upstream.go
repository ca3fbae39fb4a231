package proxy

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EngineSpec describes one engine upstream in the proxy's upstream set:
// where to reach it, how to authenticate it, and how much of the
// obfuscated traffic it should carry. The zero Weight means 1; the zero
// MaxConns inherits Config.PoolSize.
type EngineSpec struct {
	// Host is the engine's host:port.
	Host string
	// RootsPEM, when set, makes the enclave speak HTTPS to this upstream
	// (paper footnote 2), pinning these PEM-encoded roots (part of the
	// measured identity).
	RootsPEM []byte
	// Weight is the upstream's relative share of the fan-out (CYCLOSA-style
	// load spreading). Zero means 1.
	Weight int
	// MaxConns bounds this upstream's idle keep-alive pool. Zero inherits
	// the proxy-wide Config.PoolSize.
	MaxConns int
}

// upstream is the in-enclave state of one engine upstream: its address and
// pinned roots, its private connection pool, its circuit-breaker health
// state, and its traffic counters. All of it lives inside the trusted
// boundary; the untrusted runtime only ever sees opaque socket handles.
type upstream struct {
	host   string
	cas    *x509.CertPool // nil => plain TCP
	weight int

	// TLS client state, set iff cas != nil. tlsConf pins cas, fixes the
	// ServerName, and carries one trusted ClientSessionCache, so sessions
	// resume across redials.
	tlsConf *tls.Config

	// idle is the upstream's keep-alive pool, the one every exchange —
	// blocking or in flight — checks out of: established sessions, in-enclave
	// TLS state included for a pinned-root upstream, over live host sockets,
	// oldest-returned first; maxIdle <= 0 turns pooling off. Guarded by
	// idleMu, NOT u.mu — pool churn must not contend with breaker
	// accounting. poolReuses/poolDials count checkouts served from the pool
	// versus fresh dials; poolEvicted counts sessions dropped by FIFO
	// overflow, idle expiry (engines reap idle keep-alive conns server-side:
	// better a fresh dial than a guaranteed stale-use retry) or a failed
	// probe.
	idleMu      sync.Mutex
	idle        []*idleConn
	maxIdle     int
	idleTTL     time.Duration
	poolReuses  atomic.Uint64
	poolDials   atomic.Uint64
	poolEvicted atomic.Uint64

	// served counts requests this upstream answered (any HTTP status).
	served atomic.Uint64

	// Breaker state. After threshold consecutive failures the upstream is
	// "open": excluded from selection until openUntil, after which exactly
	// one request is admitted as a probe (half-open). A success closes the
	// breaker; a failure re-opens it for another cooldown.
	mu          sync.Mutex
	consecFails int
	failures    uint64 // total, for Stats
	openUntil   time.Time
	probing     bool
	// tripped tracks the breaker's open/closed edge for the event log;
	// notify (nil when events are off) is called on each transition with
	// the new state. The host already knows which engines it dials, so the
	// event carries nothing it cannot see.
	tripped bool
	notify  func(open bool)
}

// acquire reports whether the upstream may serve a request at time now.
// In the open state only one probe may be in flight at a time; acquire
// claims it, and the subsequent reportSuccess/reportFailure releases it.
func (u *upstream) acquire(now time.Time, threshold int) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.consecFails < threshold {
		return true
	}
	if u.probing || now.Before(u.openUntil) {
		return false
	}
	u.probing = true
	return true
}

// reportSuccess closes the breaker: the upstream answered an exchange.
func (u *upstream) reportSuccess() {
	u.mu.Lock()
	u.consecFails = 0
	u.probing = false
	closed := u.tripped
	u.tripped = false
	notify := u.notify
	u.mu.Unlock()
	if closed && notify != nil {
		notify(false)
	}
}

// reportCancelled releases an acquire whose exchange never finished on its
// own merits — the runtime aborted it (abandon, shutdown) or the
// submission was unwound. The breaker state is untouched: a self-inflicted
// abort says nothing about the upstream's health, but a claimed half-open
// probe slot must still be returned or the upstream could never be probed
// again.
func (u *upstream) reportCancelled() {
	u.mu.Lock()
	u.probing = false
	u.mu.Unlock()
}

// reportFailure records a failed dial or exchange, (re-)opening the
// breaker for cooldown once the consecutive-failure threshold is reached.
func (u *upstream) reportFailure(now time.Time, threshold int, cooldown time.Duration) {
	u.mu.Lock()
	u.consecFails++
	u.failures++
	u.probing = false
	opened := false
	if u.consecFails >= threshold {
		u.openUntil = now.Add(cooldown)
		opened = !u.tripped
		u.tripped = true
	}
	notify := u.notify
	u.mu.Unlock()
	if opened && notify != nil {
		notify(true)
	}
}

// upstreamRegistry owns the proxy's engine upstreams: weighted selection
// across the healthy ones, failover order for the rest, and the breaker
// parameters. Selection walks a weighted ring — an upstream with weight w
// occupies w consecutive slots — so over time shares match weights without
// per-request randomness (the obfuscator owns all enclave randomness).
type upstreamRegistry struct {
	ups         []*upstream
	totalWeight int
	pos         atomic.Uint64

	threshold int
	cooldown  time.Duration
}

func newUpstreamRegistry(ups []*upstream, threshold int, cooldown time.Duration) *upstreamRegistry {
	total := 0
	for _, u := range ups {
		total += u.weight
	}
	return &upstreamRegistry{ups: ups, totalWeight: total, threshold: threshold, cooldown: cooldown}
}

// order returns every upstream in this request's preference order: the
// weighted-ring pick first, the others following in ring order as failover
// candidates. The caller still gates each candidate through acquire, so a
// cooling-down upstream costs nothing and a probe-eligible one costs at
// most one request.
func (r *upstreamRegistry) order() []*upstream {
	n := len(r.ups)
	if n == 1 {
		return r.ups
	}
	slot := int(r.pos.Add(1)-1) % r.totalWeight
	start := 0
	for i, u := range r.ups {
		if slot < u.weight {
			start = i
			break
		}
		slot -= u.weight
	}
	out := make([]*upstream, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.ups[(start+i)%n])
	}
	return out
}

// UpstreamStats is one upstream's slice of Proxy.Stats: traffic share,
// failure and breaker state, and its private pool's gauges.
type UpstreamStats struct {
	Host   string `json:"host"`
	Weight int    `json:"weight"`
	// Served counts requests this upstream answered; Failures counts
	// failed dials/exchanges; CoolingDown reports an open breaker still
	// inside its cooldown window.
	Served      uint64 `json:"served"`
	Failures    uint64 `json:"failures"`
	CoolingDown bool   `json:"cooling_down"`
	// Pool gauges, scoped to this upstream's keep-alive pool.
	PoolIdle       int     `json:"pool_idle"`
	PoolReuses     uint64  `json:"pool_reuses"`
	PoolDials      uint64  `json:"pool_dials"`
	PoolEvicted    uint64  `json:"pool_evicted"`
	PoolReuseRatio float64 `json:"pool_reuse_ratio"`
}

// stats snapshots one upstream.
func (u *upstream) stats(now time.Time, threshold int) UpstreamStats {
	u.mu.Lock()
	failures := u.failures
	cooling := u.consecFails >= threshold && now.Before(u.openUntil)
	u.mu.Unlock()
	s := UpstreamStats{
		Host:        u.host,
		Weight:      u.weight,
		Served:      u.served.Load(),
		Failures:    failures,
		CoolingDown: cooling,
	}
	u.idleMu.Lock()
	s.PoolIdle = len(u.idle)
	u.idleMu.Unlock()
	s.PoolReuses = u.poolReuses.Load()
	s.PoolDials = u.poolDials.Load()
	s.PoolEvicted = u.poolEvicted.Load()
	s.PoolReuseRatio = ratio(s.PoolReuses, s.PoolReuses+s.PoolDials)
	return s
}

// normalizeEngines validates the configured upstream set and fills the
// per-spec defaults.
func normalizeEngines(cfg *Config) ([]EngineSpec, error) {
	// Copy before filling defaults: callers may reuse one spec slice
	// across proxies with different PoolSize etc.
	engines := append([]EngineSpec(nil), cfg.Engines...)
	seen := make(map[string]bool, len(engines))
	for i := range engines {
		e := &engines[i]
		if e.Host == "" {
			return nil, fmt.Errorf("proxy: engine %d has no host", i)
		}
		if _, _, err := splitHostPort(e.Host); err != nil {
			return nil, err
		}
		if seen[e.Host] {
			return nil, fmt.Errorf("proxy: duplicate engine upstream %s", e.Host)
		}
		seen[e.Host] = true
		if e.Weight < 0 {
			return nil, fmt.Errorf("proxy: engine %s has negative weight", e.Host)
		}
		if e.Weight == 0 {
			e.Weight = 1
		}
		if e.MaxConns == 0 {
			e.MaxConns = cfg.PoolSize
		}
	}
	return engines, nil
}

// buildRegistry constructs the in-enclave upstream registry from the
// normalized spec set.
func buildRegistry(engines []EngineSpec, cfg *Config) (*upstreamRegistry, error) {
	ups := make([]*upstream, len(engines))
	for i, e := range engines {
		u := &upstream{host: e.Host, weight: e.Weight, maxIdle: e.MaxConns, idleTTL: poolIdleTimeout}
		if len(e.RootsPEM) > 0 {
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(e.RootsPEM) {
				return nil, fmt.Errorf("proxy: engine %s RootsPEM contains no certificates", e.Host)
			}
			u.cas = pool
			host, _, err := splitHostPort(e.Host)
			if err != nil {
				return nil, err
			}
			u.tlsConf = &tls.Config{
				RootCAs:    pool,
				ServerName: host,
				// Session tickets live in trusted memory only; resuming
				// skips a full handshake's worth of ring round trips.
				ClientSessionCache: tls.NewLRUClientSessionCache(0),
			}
		}
		ups[i] = u
	}
	return newUpstreamRegistry(ups, cfg.UpstreamFailThreshold, cfg.UpstreamCooldown), nil
}
