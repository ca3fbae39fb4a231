package xsearch

import (
	"context"
	"crypto/ed25519"
	"io"
	"net/http"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/fleet"
	"xsearch/internal/obs"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
)

// Result is one filtered search hit returned to the user.
type Result = core.Result

// Measurement identifies an enclave build (MRENCLAVE).
type Measurement = enclave.Measurement

// Stats is a proxy's operational snapshot.
type Stats = proxy.Stats

// UpstreamStats is one engine upstream's slice of Stats.
type UpstreamStats = proxy.UpstreamStats

// EngineSpec describes one engine upstream for WithEngines: address,
// optional pinned TLS roots and fan-out weight (zero means 1).
type EngineSpec = proxy.EngineSpec

// --- Proxy ---

// Proxy is a running X-Search node.
type Proxy struct {
	inner *proxy.Proxy
}

// ProxyOption configures NewProxy.
type ProxyOption interface {
	applyProxy(*proxy.Config)
}

type proxyOptionFunc func(*proxy.Config)

func (f proxyOptionFunc) applyProxy(c *proxy.Config) { f(c) }

// WithEngines points the proxy at a set of engine upstreams. The enclave
// spreads obfuscated queries across them by weight (CYCLOSA-style load
// spreading), fails over to the next upstream when one refuses or breaks
// mid-exchange, and excludes an upstream behind a circuit breaker after
// repeated failures — a dead engine costs one probe per cooldown instead
// of a timeout per request. Each upstream gets its own in-enclave
// keep-alive pool; the upstream set (hosts, weights, pinned roots) is part
// of the measured enclave identity.
func WithEngines(specs ...EngineSpec) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.Engines = append(c.Engines, specs...) })
}

// WithUpstreamBreaker tunes the per-upstream circuit breaker: threshold
// consecutive failures open it, and an open breaker excludes its upstream
// from fan-out for cooldown before admitting a single probe request.
// Zero values keep the defaults (3 failures, 1s).
func WithUpstreamBreaker(threshold int, cooldown time.Duration) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) {
		c.UpstreamFailThreshold = threshold
		c.UpstreamCooldown = cooldown
	})
}

// WithFakeQueries sets k, the number of real past queries OR-aggregated
// with each original query (paper default: 3).
func WithFakeQueries(k int) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.K = k })
}

// WithHistoryCapacity bounds the in-enclave sliding window of past
// queries (paper: ~1M fits the EPC).
func WithHistoryCapacity(x int) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.HistoryCapacity = x })
}

// WithResultsPerList bounds each sub-query's result list (paper: 20).
func WithResultsPerList(n int) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.ResultsPerList = n })
}

// WithEchoMode makes the proxy answer immediately after obfuscation
// without contacting the engine — the paper's capacity-measurement mode.
func WithEchoMode() ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.EchoMode = true })
}

// WithProxySeed fixes the obfuscator's randomness (reproducible runs).
func WithProxySeed(seed uint64) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.Seed = seed })
}

// WithStatePersistence persists the enclave's sealed state — the
// past-query history and the answer index — across restarts as one
// enclave-sealed blob at path. platformSeed simulates the physical
// machine identity: restarts with the same seed can unseal, other machines
// (and the host itself) cannot.
func WithStatePersistence(path string, platformSeed []byte) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) {
		c.StatePath = path
		c.PlatformSeed = platformSeed
	})
}

// WithEnginePool bounds the enclave's pool of idle keep-alive connections
// to the engine (default 8). Pass a negative size to disable pooling and
// dial a fresh socket per request.
func WithEnginePool(size int) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.PoolSize = size })
}

// WithAsyncOcalls switches the request hot path to the staged asynchronous
// pipeline: the enclave submits engine fetches to a switchless-style ocall
// ring serviced by untrusted workers, releasing its thread (TCS) for the
// duration of the network round trip, so obfuscation/filtering of the next
// request overlaps the engine wait of the previous one. depth bounds
// concurrently staged requests (0 = default 64). TLS upstreams work
// unchanged: the enclave still terminates TLS, and each step of a
// connection's handshake or exchange parks the request on one async
// "tls_step" ocall instead of holding its TCS.
func WithAsyncOcalls(depth int) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) {
		c.AsyncOcalls = true
		c.PipelineDepth = depth
	})
}

// WithFetchTimeout bounds each whole engine fetch attempt — connect, TLS
// handshake, request, response — on the blocking and the async engine
// stage alike: an upstream that accepts the connection but never responds
// fails the fetch after d — counted against its circuit breaker like any
// refused response, so requests fail over to healthy upstreams — instead
// of pinning a TCS (blocking) or a parked flight (async) until something
// else cancels it. Zero (the default) keeps the previous behaviour: no
// per-fetch deadline.
func WithFetchTimeout(d time.Duration) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.FetchTimeout = d })
}

// WithBatching coalesces admitted requests into vectorized enclave
// crossings (requires WithAsyncOcalls): up to max requests share one
// "request-batch" ecall — one enclave transition, one obfuscator pass, one
// EPC settlement — and completions drain in batches the same way. The
// batcher is group commit: a batch is the first request plus whatever is
// already queued behind it, so load decides the occupancy and a lone
// request never waits for company. max must be at least 2 and at most
// the pipeline depth. Handshakes and per-request semantics (failover,
// coalescing) are untouched — only the boundary crossing is shared.
func WithBatching(max int) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.BatchMax = max })
}

// WithResultCache enables the in-enclave obfuscated-result cache: filtered
// results are kept for repeat queries, bounded to maxBytes total (charged
// against the EPC like the history window) and ttl freshness. A zero ttl
// uses the default (60s).
func WithResultCache(maxBytes int64, ttl time.Duration) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) {
		c.CacheBytes = maxBytes
		c.CacheTTL = ttl
	})
}

// WithLocalIndex enables the in-enclave answer tier: a forward-private
// TF-IDF index over recently fetched results that serves rephrased and
// near-repeat queries without an upstream round trip. maxBytes bounds the
// index (charged against the EPC like the history window and result
// cache), ttl bounds document freshness (zero uses the default, 120s), and
// minScore is the confidence floor below which a probe falls through to
// the upstream pipeline (zero uses the default; NewProxy refuses a
// negative one).
func WithLocalIndex(maxBytes int64, ttl time.Duration, minScore float64) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) {
		c.IndexBytes = maxBytes
		c.IndexTTL = ttl
		c.IndexMinScore = minScore
	})
}

// WithObservability enables the full observability layer: trusted-side
// per-stage latency histograms (admit → obfuscate → probe → submit →
// fetch → resume → filter → reply) exported only as aggregates on
// /stats and the Prometheus text-format /metrics endpoint, a
// ring-buffered structured event log on /events, and pprof handlers on
// the admin mux. All telemetry is content-free and constant-shape by
// construction — no query or result text ever reaches a metric or event,
// and every label value comes from a closed set — so the host-visible
// surface gains no re-identification signal (the SimAttack adversary
// learns nothing new). On a Fleet it rides WithShardConfig like every
// other per-shard option; the gateway then also serves a fleet-merged
// /metrics (per-shard series labelled by shard index, ?shard=N to narrow)
// and one shared /events stream.
func WithObservability() ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) { c.Observability = true })
}

// WithEventLog builds the structured event ring (size <= 0 keeps the
// default, 1024) and, when stream is non-nil, mirrors every event to it
// as one JSON object per line (the -log-json stderr stream). Enables
// event logging by itself; combine with WithObservability for stage
// tracing and pprof too. On a Fleet it rides WithShardConfig, and the
// ring and stream are shared by the gateway and every shard.
func WithEventLog(size int, stream io.Writer) ProxyOption {
	return proxyOptionFunc(func(c *proxy.Config) {
		var opts []obs.LogOption
		if stream != nil {
			opts = append(opts, obs.WithStream(stream))
		}
		c.EventLog = obs.NewLog(size, opts...)
	})
}

// NewProxy builds the enclave-hosted proxy.
func NewProxy(opts ...ProxyOption) (*Proxy, error) {
	var cfg proxy.Config
	cfg.K = 3
	for _, o := range opts {
		o.applyProxy(&cfg)
	}
	p, err := proxy.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Proxy{inner: p}, nil
}

// Start serves the proxy's HTTP fronts on addr ("127.0.0.1:0" picks a
// free port).
func (p *Proxy) Start(addr string) error { return p.inner.Start(addr) }

// ServeErr delivers at most one fatal HTTP-front serve error (the accept
// loop died after a successful Start); a proxy whose front died cannot
// recover, so operators should treat it like a crash.
func (p *Proxy) ServeErr() <-chan error { return p.inner.ServeErr() }

// Addr returns the bound address after Start.
func (p *Proxy) Addr() string { return p.inner.Addr() }

// URL returns the proxy base URL.
func (p *Proxy) URL() string { return p.inner.URL() }

// Shutdown stops the proxy and destroys its enclave.
func (p *Proxy) Shutdown(ctx context.Context) error { return p.inner.Shutdown(ctx) }

// Measurement returns the enclave identity clients should pin.
func (p *Proxy) Measurement() Measurement { return p.inner.Measurement() }

// AttestationKey returns the attestation service's report-signing key
// clients pin (the IAS-certificate analogue).
func (p *Proxy) AttestationKey() ed25519.PublicKey {
	return p.inner.AttestationService().PublicKey()
}

// Stats returns operational counters and enclave resource accounting.
func (p *Proxy) Stats() Stats { return p.inner.Stats() }

// --- Fleet ---

// Fleet is a gateway fronting N independent proxy-enclave shards: each
// client session is opened on the live shard with the fewest sessions and
// stays there (its obfuscation always draws from that shard's in-enclave
// history window), sessions on a dead shard re-attest onto live ones, and a
// planned Drain hands a shard's history to its successor as a sealed blob. Its client edge is a
// single Proxy's (POST /handshake, POST /secure), so brokers point at a
// fleet unchanged.
type Fleet struct {
	inner *fleet.Gateway
}

// FleetStats is the fleet-wide operational snapshot: gateway routing
// counters, per-shard node snapshots (EPC heap, history bytes,
// cache/coalesce/pool gauges), and Total, the merge of the live shards'
// snapshots (sums, ratios of the sums, worst-shard tails).
type FleetStats = fleet.Stats

// FleetShardStats is one shard's slice of FleetStats.
type FleetShardStats = fleet.ShardStats

// FleetDrainReport describes a completed planned drain.
type FleetDrainReport = fleet.DrainReport

// FleetOption configures NewFleet.
type FleetOption interface {
	applyFleet(*fleet.Config)
}

type fleetOptionFunc func(*fleet.Config)

func (f fleetOptionFunc) applyFleet(c *fleet.Config) { f(c) }

// WithShardCount sets how many proxy-enclave shards the fleet runs
// (default 2 — a fleet of one is just a Proxy).
func WithShardCount(n int) FleetOption {
	return fleetOptionFunc(func(c *fleet.Config) { c.Shards = n })
}

// WithShardConfig applies proxy options to every shard's template — each
// shard is a full proxy node, so engine sets, pools, caches and breakers
// all compose per shard. The fleet derives what must differ per shard
// (platform, obfuscation seed, state path suffix).
func WithShardConfig(opts ...ProxyOption) FleetOption {
	return fleetOptionFunc(func(c *fleet.Config) {
		for _, o := range opts {
			o.applyProxy(&c.ShardConfig)
		}
	})
}

// NewFleet builds the sharded fleet and its session-routing gateway.
func NewFleet(opts ...FleetOption) (*Fleet, error) {
	cfg := fleet.Config{Shards: 2}
	cfg.ShardConfig.K = 3
	for _, o := range opts {
		o.applyFleet(&cfg)
	}
	g, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{inner: g}, nil
}

// Start serves the gateway front on addr ("127.0.0.1:0" picks a port).
func (f *Fleet) Start(addr string) error { return f.inner.Start(addr) }

// StartMux serves the multiplexed raw-TCP client edge on addr: one
// long-lived framed connection per client host carries every sealed call
// (handshakes and secure records) instead of one HTTP connection per
// request. Like the HTTP front, it carries no query in the clear. It fails
// after Shutdown.
func (f *Fleet) StartMux(addr string) error { return f.inner.StartMux(addr) }

// MuxAddr returns the raw-TCP mux edge's bound address after StartMux.
func (f *Fleet) MuxAddr() string { return f.inner.MuxAddr() }

// ServeErr delivers at most one fatal HTTP-front serve error (the accept
// loop died after a successful Start); a gateway whose front died cannot
// recover, so operators should treat it like a crash.
func (f *Fleet) ServeErr() <-chan error { return f.inner.ServeErr() }

// Addr returns the gateway's bound address after Start.
func (f *Fleet) Addr() string { return f.inner.Addr() }

// URL returns the gateway base URL.
func (f *Fleet) URL() string { return f.inner.URL() }

// Shutdown stops the gateway and destroys every live shard enclave.
func (f *Fleet) Shutdown(ctx context.Context) error { return f.inner.Shutdown(ctx) }

// ShardCount returns the configured number of shards: the ring is fixed
// at NewFleet, and killed or drained shards keep their place in it.
func (f *Fleet) ShardCount() int { return f.inner.ShardCount() }

// Measurement returns the enclave identity clients pin; every shard is
// built from the same measured template, so one measurement covers the
// fleet.
func (f *Fleet) Measurement() Measurement { return f.inner.Measurement() }

// AttestationKey returns the fleet-shared attestation service's
// report-signing key clients pin.
func (f *Fleet) AttestationKey() ed25519.PublicKey {
	return f.inner.AttestationService().PublicKey()
}

// Stats returns the fleet snapshot.
func (f *Fleet) Stats() FleetStats { return f.inner.Stats() }

// KillShard simulates shard i crashing: its enclave is destroyed with no
// drain; the gateway opens no new session on it, and its sessions'
// brokers re-attest onto live shards.
func (f *Fleet) KillShard(ctx context.Context, i int) error { return f.inner.Kill(ctx, i) }

// DrainShard removes shard i in an orderly way, migrating its history
// window and answer index to its successor as one sealed blob before
// destroying the enclave.
func (f *Fleet) DrainShard(ctx context.Context, i int) (*FleetDrainReport, error) {
	return f.inner.Drain(ctx, i)
}

// --- Client ---

// Client is an attested X-Search client (the paper's query broker).
type Client struct {
	inner *broker.Broker
}

// ClientOption configures NewClient.
type ClientOption interface {
	applyClient(*broker.Config)
}

type clientOptionFunc func(*broker.Config)

func (f clientOptionFunc) applyClient(c *broker.Config) { f(c) }

// WithTrustedMeasurement pins an acceptable enclave build. At least one
// measurement (or signer) is required.
func WithTrustedMeasurement(m Measurement) ClientOption {
	return clientOptionFunc(func(c *broker.Config) {
		c.Policy.AcceptedMeasurements = append(c.Policy.AcceptedMeasurements, m)
	})
}

// WithTrustedSigner accepts any enclave from the given vendor (MRSIGNER).
func WithTrustedSigner(m Measurement) ClientOption {
	return clientOptionFunc(func(c *broker.Config) {
		c.Policy.AcceptedSigners = append(c.Policy.AcceptedSigners, m)
	})
}

// WithAttestationKey pins the attestation service's signing key.
func WithAttestationKey(key ed25519.PublicKey) ClientOption {
	return clientOptionFunc(func(c *broker.Config) { c.ServiceKey = key })
}

// WithResultCount sets the per-query result budget (default 20).
func WithResultCount(n int) ClientOption {
	return clientOptionFunc(func(c *broker.Config) { c.Count = n })
}

// WithHTTPClient injects a custom transport (timeouts, latency models).
func WithHTTPClient(hc *http.Client) ClientOption {
	return clientOptionFunc(func(c *broker.Config) { c.HTTPClient = hc })
}

// WithMuxTransport carries every proxy RPC over one long-lived
// multiplexed TCP connection to the gateway's mux edge at muxAddr
// (Fleet.StartMux), instead of one HTTP request per call. A dropped
// conn is transparently re-dialed and the live attested session carries
// on over the new one without re-attestation; the gateway needs no word
// of it, because the session id names its shard.
func WithMuxTransport(muxAddr string) ClientOption {
	return clientOptionFunc(func(c *broker.Config) {
		c.Transport = "mux"
		c.MuxAddr = muxAddr
	})
}

// NewClient builds a client of the proxy at proxyURL.
func NewClient(proxyURL string, opts ...ClientOption) (*Client, error) {
	cfg := broker.Config{ProxyURL: proxyURL}
	for _, o := range opts {
		o.applyClient(&cfg)
	}
	b, err := broker.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Client{inner: b}, nil
}

// Connect attests the proxy enclave and establishes the encrypted channel.
// It must be called before Search.
func (c *Client) Connect(ctx context.Context) error { return c.inner.Connect(ctx) }

// Connected reports whether an attested channel is established.
func (c *Client) Connected() bool { return c.inner.Connected() }

// Search sends one query through the attested tunnel and returns the
// results filtered down to the original query.
func (c *Client) Search(ctx context.Context, query string) ([]Result, error) {
	return c.inner.Search(ctx, query)
}

// Close releases the client's transport connection (a no-op on the
// default HTTP transport).
func (c *Client) Close() error { return c.inner.Close() }

// --- Engine ---

// Engine is the simulated search engine substrate, exposed so examples
// and deployments can run a full self-contained stack.
type Engine struct {
	engine *searchengine.Engine
	server *searchengine.Server
}

// EngineOption configures NewEngine.
type EngineOption interface {
	applyEngine(*engineOptions)
}

type engineOptions struct {
	docsPerTopic int
	seed         uint64
}

type engineOptionFunc func(*engineOptions)

func (f engineOptionFunc) applyEngine(o *engineOptions) { f(o) }

// WithCorpusSize sets documents generated per topic (default 200).
func WithCorpusSize(docsPerTopic int) EngineOption {
	return engineOptionFunc(func(o *engineOptions) { o.docsPerTopic = docsPerTopic })
}

// WithEngineSeed fixes corpus generation.
func WithEngineSeed(seed uint64) EngineOption {
	return engineOptionFunc(func(o *engineOptions) { o.seed = seed })
}

// NewEngine builds an engine over a synthetic topical corpus.
func NewEngine(opts ...EngineOption) *Engine {
	o := engineOptions{docsPerTopic: 200, seed: 1}
	for _, opt := range opts {
		opt.applyEngine(&o)
	}
	eng := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{
			DocsPerTopic: o.docsPerTopic,
			Seed:         o.seed,
		})))
	return &Engine{engine: eng, server: searchengine.NewServer(eng)}
}

// Start serves the engine's HTTP API on addr.
func (e *Engine) Start(addr string) error { return e.server.Start(addr) }

// Addr returns the bound address after Start.
func (e *Engine) Addr() string { return e.server.Addr() }

// URL returns the engine base URL.
func (e *Engine) URL() string { return e.server.URL() }

// Shutdown stops the engine.
func (e *Engine) Shutdown(ctx context.Context) error { return e.server.Shutdown(ctx) }

// QueryLog returns what the curious engine has recorded — useful for
// demonstrating what an adversary sees with and without X-Search.
func (e *Engine) QueryLog() []LoggedQuery {
	raw := e.engine.QueryLog()
	out := make([]LoggedQuery, len(raw))
	for i, l := range raw {
		out[i] = LoggedQuery{Source: l.Source, Query: l.Query}
	}
	return out
}

// LoggedQuery is one entry the curious engine recorded.
type LoggedQuery struct {
	Source string
	Query  string
}

// Verify interface compliance of option implementations.
var (
	_ ProxyOption  = proxyOptionFunc(nil)
	_ ClientOption = clientOptionFunc(nil)
	_ EngineOption = engineOptionFunc(nil)
	_ FleetOption  = fleetOptionFunc(nil)
	_              = attestation.Policy{}
)
