package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"xsearch/internal/answer"
	"xsearch/internal/attestation"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/netsim"
	"xsearch/internal/obs"
	"xsearch/internal/seal"
	"xsearch/internal/serve"
)

// Config parameterizes an X-Search proxy node.
type Config struct {
	// K is the number of fake queries OR-aggregated with each original.
	K int
	// HistoryCapacity is the sliding-window bound x on stored past
	// queries. Zero means 1,000,000 (which fits the EPC, Figure 6).
	HistoryCapacity int
	// Engines is the set of engine upstreams the enclave spreads
	// obfuscated queries across (weighted fan-out with failover and a
	// per-upstream circuit breaker). At least one upstream is required
	// unless EchoMode.
	Engines []EngineSpec
	// ResultsPerList bounds each sub-query's result list (paper uses 20).
	ResultsPerList int
	// EchoMode answers immediately after obfuscation without contacting
	// the engine — the paper's §6.3 capacity-measurement configuration.
	EchoMode bool
	// Seed fixes obfuscation randomness; zero draws a random seed.
	Seed uint64
	// MaxSessions bounds concurrent secure channels (FIFO eviction).
	MaxSessions int
	// PoolSize bounds the enclave's pool of idle keep-alive connections
	// to the engine. Zero means DefaultPoolSize; negative disables
	// pooling (every request dials a fresh socket, the paper's original
	// behaviour).
	PoolSize int
	// CacheBytes bounds the in-enclave obfuscated-result cache, charged
	// against the EPC like the history window. Zero disables caching.
	CacheBytes int64
	// CacheTTL bounds cached-entry freshness. Zero means DefaultCacheTTL
	// (only consulted when CacheBytes > 0).
	CacheTTL time.Duration
	// IndexBytes bounds the in-enclave answer index: a mutable TF-IDF
	// inverted index over recently fetched results that serves repeat and
	// rephrased queries with zero upstream round trips. Charged against
	// the EPC like the history and cache (heap == history + cache +
	// index), with arena-quantized charges so the host's EPC trace never
	// keys on indexed terms. Zero disables the answer tier.
	IndexBytes int64
	// IndexTTL bounds indexed-document freshness. Zero means
	// DefaultIndexTTL (only consulted when IndexBytes > 0).
	IndexTTL time.Duration
	// IndexMinScore is the answer tier's confidence floor: the
	// best-matching indexed document must score at least this (TF-IDF
	// cosine) or the query falls through to the upstream pipeline. Zero
	// means answer.DefaultMinScore; only consulted when IndexBytes > 0.
	IndexMinScore float64
	// UpstreamFailThreshold is how many consecutive failures open an
	// upstream's circuit breaker. Zero means DefaultUpstreamFailThreshold.
	UpstreamFailThreshold int
	// UpstreamCooldown is how long an open breaker excludes the upstream
	// from selection before admitting a single probe request. Zero means
	// DefaultUpstreamCooldown.
	UpstreamCooldown time.Duration
	// DisableCoalescing turns off single-flight coalescing of concurrent
	// identical original queries (ablations; coalescing is on by default).
	DisableCoalescing bool
	// UpstreamRateLimit caps the sustained request rate this proxy sends to
	// EACH engine upstream (token bucket, requests/second). Zero means
	// unlimited. In a sharded fleet it keeps one hot shard from starving a
	// shared engine: an upstream with no tokens is skipped like a
	// cooling-down one, spilling the request to the next upstream.
	UpstreamRateLimit float64
	// UpstreamRateBurst is the token bucket depth (how far above the
	// sustained rate a short burst may go). Zero means
	// max(1, ceil(UpstreamRateLimit)); only consulted when
	// UpstreamRateLimit > 0.
	UpstreamRateBurst int
	// AsyncOcalls switches the request stage's engine stage from blocking
	// (the ecall→ocall chain) to parking: engine fetches are submitted to
	// a switchless-style ocall ring serviced by untrusted worker
	// goroutines, the enclave thread (TCS) is released
	// while the round trip is in flight, and the request is resumed by a
	// later ecall carrying the completion. Obfuscation/filtering of
	// request N+1 overlaps the network wait of request N. Upstreams with
	// pinned roots (RootsPEM) ride the same pipeline: the TLS record
	// layer stays in trusted code and its socket I/O is carried by async
	// "tls_step" ocalls (see doc.go, "TLS transport").
	AsyncOcalls bool
	// PipelineDepth bounds concurrently staged requests (and sizes the
	// async worker pool and rings). Zero means DefaultPipelineDepth; only
	// consulted when AsyncOcalls is set.
	PipelineDepth int
	// HedgeDelay is how long a pipelined request waits on its primary
	// upstream before re-issuing the fetch to the next healthy upstream
	// and racing the two (first response wins, loser cancelled). Zero
	// derives the delay from the primary upstream's observed p95 fetch
	// latency (DefaultHedgeDelay while cold). Only consulted when
	// HedgeMax > 0.
	HedgeDelay time.Duration
	// HedgeMax is the maximum hedge fetches per request (0 disables
	// hedging). Hedging requires AsyncOcalls.
	HedgeMax int
	// FetchTimeout is an absolute deadline over each engine fetch attempt
	// — connect, TLS handshake (when the upstream pins roots), request,
	// and response — on both the blocking path and the async pipeline. An
	// upstream that accepts the connection but never responds (or
	// dribbles a handshake forever) fails the fetch after this long
	// instead of pinning a TCS or an async worker until a hedge winner,
	// caller abandonment, or shutdown cancels it. The timeout is counted
	// as an upstream failure for the circuit breaker, exactly like a
	// refused response. Zero (the default) preserves the previous
	// behaviour: no per-fetch deadline.
	FetchTimeout time.Duration
	// BatchMax enables the adaptive ecall batcher when >= 2: admitted
	// requests are coalesced into vectorized "request-batch" ecalls of up
	// to BatchMax entries, and each "resume" ecall carries up to BatchMax
	// ready completions, amortizing the fixed enclave transition cost (and
	// the per-crossing obfuscator-lock and EPC traffic) across the batch.
	// Zero disables batching — every request pays its own EENTER pair.
	// Requires AsyncOcalls; capped by PipelineDepth (a batch is drawn
	// from admitted requests and can never fill past the admission
	// bound).
	BatchMax int
	// BatchWindow is how long a forming request batch waits for more
	// entries once the queue shows depth (two or more waiting): a shallow
	// queue submits immediately (latency-first), a deepening one
	// coalesces until BatchMax entries or BatchWindow elapses, whichever
	// first. Zero means DefaultBatchWindow; only consulted when BatchMax
	// is set.
	BatchWindow time.Duration
	// Observability enables the privacy-safe observability layer: trusted-
	// side per-stage latency histograms (admit → obfuscate → probe → submit
	// → fetch/hedge → resume → filter → reply) exported only as aggregates
	// on /stats and the Prometheus /metrics endpoint, a ring-buffered
	// structured event log on /events, and pprof handlers on the admin mux.
	// Telemetry is content-free by construction — no query or result text,
	// label values from closed sets only — so the host-visible surface
	// stays constant-shape regardless of traffic.
	Observability bool
	// EventLogSize bounds the in-memory event ring (drop-oldest). Zero
	// means obs.DefaultLogCapacity; a positive value enables event
	// logging even without Observability. Ignored when EventLog is set.
	EventLogSize int
	// EventLog, when set, is a shared event log this proxy appends to
	// instead of creating its own — the fleet gateway injects one log per
	// fleet so shard events interleave in one stream. Implies event
	// logging even without Observability (the fleet decides).
	EventLog *obs.Log
	// EventShard is the shard index stamped on this proxy's events (fleet
	// wiring; standalone proxies leave it 0).
	EventShard int
	// EventStream, when set, receives every appended event as one JSON
	// line (the -log-json stderr stream). Only consulted when this proxy
	// creates its own log (EventLog nil).
	EventStream io.Writer
	// EngineLink injects WAN latency on the proxy <-> engine path
	// (experiments); nil means none.
	EngineLink *netsim.Link
	// StatePath, when set, persists the query history as a sealed blob:
	// restored (if present) at startup, written at shutdown. The blob is
	// MRSIGNER-sealed, so upgraded proxy builds from the same vendor on
	// the same platform can restore it — the host never reads it.
	StatePath string
	// PlatformSeed derives the platform fuse key deterministically,
	// simulating restarts on the same physical machine. Ignored when
	// Platform is set.
	PlatformSeed []byte
	// Platform hosts the enclave; nil creates a dedicated platform.
	Platform *enclave.Platform
	// Enclave tuning (TCS count, transition cost, EPC behaviour).
	EnclaveConfig enclave.Config
	// AttestationService verifies quotes; nil creates a private one
	// (tests). Production deployments share one service.
	AttestationService *attestation.Service
	// QuotingEnclave signs reports; nil creates one registered with the
	// service.
	QuotingEnclave *attestation.QuotingEnclave
}

// Proxy is a running X-Search node.
type Proxy struct {
	cfg      Config
	platform *enclave.Platform
	encl     *enclave.Enclave
	trusted  *trustedState
	conns    *connTable
	qe       *attestation.QuotingEnclave
	service  *attestation.Service

	// pipeline is the async request pipeline's untrusted runtime (nil
	// when Config.AsyncOcalls is off); latency records end-to-end query
	// latency on both paths.
	pipeline *pipelineRuntime
	latency  *metrics.Histogram

	http  *http.Server
	front *serve.Server

	requests   atomic.Uint64
	handshakes atomic.Uint64
	errors     atomic.Uint64
	inflight   atomic.Int64
}

// New builds the proxy: loads the trusted code into an enclave, registers
// the paper's ecall/ocall interface, and wires attestation.
func New(cfg Config) (*Proxy, error) {
	if cfg.K < 0 {
		return nil, fmt.Errorf("proxy: negative k")
	}
	if cfg.HistoryCapacity == 0 {
		cfg.HistoryCapacity = 1_000_000
	}
	if cfg.ResultsPerList <= 0 {
		cfg.ResultsPerList = 20
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 4096
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.CacheBytes > 0 && cfg.CacheTTL == 0 {
		cfg.CacheTTL = DefaultCacheTTL
	}
	if cfg.IndexMinScore < 0 {
		return nil, fmt.Errorf("proxy: negative IndexMinScore")
	}
	if cfg.IndexBytes > 0 && cfg.IndexTTL == 0 {
		cfg.IndexTTL = DefaultIndexTTL
	}
	if cfg.UpstreamFailThreshold <= 0 {
		cfg.UpstreamFailThreshold = DefaultUpstreamFailThreshold
	}
	if cfg.UpstreamCooldown <= 0 {
		cfg.UpstreamCooldown = DefaultUpstreamCooldown
	}
	if cfg.UpstreamRateLimit < 0 {
		return nil, fmt.Errorf("proxy: negative upstream rate limit")
	}
	if cfg.UpstreamRateLimit > 0 && cfg.UpstreamRateBurst <= 0 {
		cfg.UpstreamRateBurst = int(math.Ceil(cfg.UpstreamRateLimit))
		if cfg.UpstreamRateBurst < 1 {
			cfg.UpstreamRateBurst = 1
		}
	}
	engines, err := normalizeEngines(&cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.EchoMode && len(engines) == 0 {
		return nil, fmt.Errorf("proxy: Engines required unless EchoMode")
	}
	if cfg.HedgeMax < 0 {
		return nil, fmt.Errorf("proxy: negative HedgeMax")
	}
	if cfg.HedgeDelay < 0 {
		return nil, fmt.Errorf("proxy: negative HedgeDelay (use 0 for the p95-derived delay)")
	}
	if cfg.HedgeMax > 0 && !cfg.AsyncOcalls {
		return nil, fmt.Errorf("proxy: hedging requires the async ocall pipeline (AsyncOcalls)")
	}
	if cfg.FetchTimeout < 0 {
		return nil, fmt.Errorf("proxy: negative FetchTimeout")
	}
	if cfg.BatchMax < 0 {
		return nil, fmt.Errorf("proxy: negative BatchMax")
	}
	if cfg.BatchMax == 1 {
		return nil, fmt.Errorf("proxy: BatchMax 1 is the unbatched path (use 0 to disable batching)")
	}
	if cfg.BatchWindow < 0 {
		return nil, fmt.Errorf("proxy: negative BatchWindow")
	}
	if cfg.BatchMax > 0 && !cfg.AsyncOcalls {
		return nil, fmt.Errorf("proxy: ecall batching rides the async pipeline (BatchMax requires AsyncOcalls)")
	}
	if cfg.BatchWindow > 0 && cfg.BatchMax == 0 {
		return nil, fmt.Errorf("proxy: BatchWindow has no effect without BatchMax")
	}
	if cfg.AsyncOcalls {
		if cfg.PipelineDepth <= 0 {
			cfg.PipelineDepth = DefaultPipelineDepth
		}
		if cfg.BatchMax > cfg.PipelineDepth {
			return nil, fmt.Errorf("proxy: BatchMax %d above PipelineDepth %d: a batch is drawn from admitted requests and can never fill past the admission bound",
				cfg.BatchMax, cfg.PipelineDepth)
		}
		if cfg.BatchMax > 0 && cfg.BatchWindow == 0 {
			cfg.BatchWindow = DefaultBatchWindow
		}
		// One worker per possible concurrent fetch (each staged request
		// can have its primary plus HedgeMax hedges in flight at once) so
		// a full pipeline never queues behind a busy worker. Explicit
		// undersized values are rejected rather than accepted: with fewer
		// workers (and thus shallower rings) than outstanding fetches,
		// stage-1 ecalls can block in OCallAsync on a full submission
		// ring while holding every TCS, starving the resume workers that
		// drain the completion ring the async workers are blocked pushing
		// to — a four-way deadlock Shutdown cannot break. needNote tells
		// the sizing errors below why the requirement grew beyond
		// PipelineDepth.
		workersNeed, needNote := cfg.PipelineDepth*(1+cfg.HedgeMax), ""
		if cfg.HedgeMax > 0 {
			needNote = fmt.Sprintf(" ×%d with hedging", 1+cfg.HedgeMax)
		}
		// A batched stage-1 ecall bursts up to BatchMax submissions while
		// holding its TCS, so the ring must guarantee that much free
		// space even in the transient where every admitted request still
		// has its full attempt budget in flight (an abandoned request's
		// cancelled fetches briefly overlap their replacements). Without
		// the headroom a burst can block mid-batch on a full ring with a
		// TCS held — the same four-way-deadlock shape the base
		// requirement exists to exclude, now reachable by one ecall.
		workersNeed += cfg.BatchMax
		if cfg.BatchMax > 0 {
			needNote += fmt.Sprintf(" +%d batch-burst headroom", cfg.BatchMax)
		}
		// A flight keeps at most one "tls_step" in the ring at a time
		// (strict ping-pong), but terminal steps also carry
		// fire-and-forget close batches (pool evictions, loser teardown)
		// submitted while a TCS is held. Give every possible attempt one
		// slot of close headroom so a burst of terminals cannot block an
		// ecall on a full ring.
		workersNeed += cfg.PipelineDepth * (1 + cfg.HedgeMax)
		needNote += " ×2 close-step headroom"
		if d := cfg.EnclaveConfig.AsyncRingDepth; d != 0 && d < workersNeed {
			return nil, fmt.Errorf("proxy: EnclaveConfig.AsyncRingDepth %d below the pipeline's requirement %d (PipelineDepth%s): undersized rings can deadlock the pipeline — raise AsyncRingDepth or lower PipelineDepth",
				d, workersNeed, needNote)
		}
		if cfg.EnclaveConfig.AsyncWorkers == 0 {
			cfg.EnclaveConfig.AsyncWorkers = workersNeed
		} else if cfg.EnclaveConfig.AsyncWorkers < workersNeed {
			return nil, fmt.Errorf("proxy: EnclaveConfig.AsyncWorkers %d below the pipeline's requirement %d (PipelineDepth%s): undersized rings can deadlock the pipeline — raise AsyncWorkers or lower PipelineDepth",
				cfg.EnclaveConfig.AsyncWorkers, workersNeed, needNote)
		}
	}
	platform := cfg.Platform
	if platform == nil {
		if cfg.PlatformSeed != nil {
			platform = enclave.NewPlatform(enclave.WithFuseSeed(cfg.PlatformSeed))
		} else {
			platform = enclave.NewPlatform()
		}
	}

	history, err := core.NewHistory(cfg.HistoryCapacity)
	if err != nil {
		return nil, err
	}
	var obOpts []core.ObfuscatorOption
	if cfg.Seed != 0 {
		obOpts = append(obOpts, core.WithSeed(cfg.Seed))
	}
	obfuscator, err := core.NewObfuscator(history, cfg.K, obOpts...)
	if err != nil {
		return nil, err
	}
	if cfg.EventLogSize < 0 {
		return nil, fmt.Errorf("proxy: negative EventLogSize")
	}
	trusted := &trustedState{
		obfuscator: obfuscator,
		perList:    cfg.ResultsPerList,
		echoMode:   cfg.EchoMode,
		sessions:   make(map[string]*sessionState),
		maxSess:    cfg.MaxSessions,
		shard:      cfg.EventShard,
	}
	if cfg.Observability {
		trusted.stages = obs.NewStages()
	}
	switch {
	case cfg.EventLog != nil:
		trusted.events = cfg.EventLog
	case cfg.Observability || cfg.EventLogSize > 0 || cfg.EventStream != nil:
		size := cfg.EventLogSize
		if size == 0 {
			size = obs.DefaultLogCapacity
		}
		var lopts []obs.LogOption
		if cfg.EventStream != nil {
			lopts = append(lopts, obs.WithStream(cfg.EventStream))
		}
		trusted.events = obs.NewLog(size, lopts...)
	}
	if !cfg.EchoMode {
		registry, err := buildRegistry(engines, &cfg)
		if err != nil {
			return nil, err
		}
		trusted.registry = registry
		if !cfg.DisableCoalescing {
			trusted.flights = core.NewFlightGroup()
		}
		if ev := trusted.events; ev != nil {
			// Breaker transitions become fleet events. The hook fires
			// outside the upstream mutex on open/close edges only; the
			// host label comes from the configured engine set (closed).
			shard := cfg.EventShard
			for _, u := range registry.ups {
				host := u.host
				u.notify = func(open bool) {
					t := obs.EvBreakerClose
					if open {
						t = obs.EvBreakerOpen
					}
					ev.Append(obs.Event{Type: t, Shard: shard, Upstream: host})
				}
			}
		}
	}
	// The fetch deadline applies on both engine stages (it is the one
	// exchange's), so set it outside the async block.
	trusted.fetchTimeout = cfg.FetchTimeout
	if cfg.AsyncOcalls {
		trusted.pending = newPendingTable()
		trusted.hedgeMax = cfg.HedgeMax
		trusted.flightStop = make(chan struct{})
	}
	if cfg.CacheBytes > 0 {
		cache, err := core.NewResultCache(cfg.CacheBytes, cfg.CacheTTL)
		if err != nil {
			return nil, err
		}
		trusted.cache = cache
	}
	if cfg.IndexBytes > 0 {
		index, err := answer.New(cfg.IndexBytes, cfg.IndexTTL, cfg.IndexMinScore)
		if err != nil {
			return nil, err
		}
		trusted.index = index
	}

	builder := platform.NewBuilder(cfg.EnclaveConfig)
	// The measured "code": version string plus configuration that changes
	// behaviour. Different k, upstream set (hosts, weights), or pinned
	// engine CAs => different MRENCLAVE, exactly what a client wants to
	// attest.
	engineIdent := make([]string, len(engines))
	for i, e := range engines {
		engineIdent[i] = fmt.Sprintf("%s*%d", e.Host, e.Weight)
	}
	ident := fmt.Sprintf("xsearch-proxy v2.5 k=%d history=%d engines=[%s] echo=%t pool=%d cache=%d/%s index=%d/%s/%g coalesce=%t breaker=%d/%s rate=%g/%d async=%t/%d hedge=%s/%d batch=%d/%s obs=%t",
		cfg.K, cfg.HistoryCapacity, strings.Join(engineIdent, " "), cfg.EchoMode,
		cfg.PoolSize, cfg.CacheBytes, cfg.CacheTTL,
		cfg.IndexBytes, cfg.IndexTTL, cfg.IndexMinScore,
		!cfg.DisableCoalescing, cfg.UpstreamFailThreshold, cfg.UpstreamCooldown,
		cfg.UpstreamRateLimit, cfg.UpstreamRateBurst,
		cfg.AsyncOcalls, cfg.PipelineDepth, cfg.HedgeDelay, cfg.HedgeMax,
		cfg.BatchMax, cfg.BatchWindow, cfg.Observability)
	if err := builder.AddData([]byte(ident)); err != nil {
		return nil, err
	}
	for _, e := range engines {
		if len(e.RootsPEM) > 0 {
			if err := builder.AddData(e.RootsPEM); err != nil {
				return nil, err
			}
		}
	}
	builder.SetSigner(VendorSigner)
	type ecall struct {
		name    string
		handler func(enclave.Env, []byte) ([]byte, error)
	}
	ecalls := []ecall{
		// Setup options arrive before serving; currently a no-op beyond
		// existing to match the paper's interface.
		{"init", func(enclave.Env, []byte) ([]byte, error) { return nil, nil }},
		{"request", trusted.handleRequest},
		{"restore", trusted.handleRestore},
		{"snapshot", trusted.handleSnapshot},
		{"merge", trusted.handleMerge},
		// The answer index's sealed handoff seam, measured like the
		// history's snapshot/merge pair (registered unconditionally so the
		// drain path is uniform; with the index off they carry an empty
		// index).
		{"snapshot-index", trusted.handleSnapshotIndex},
		{"merge-index", trusted.handleMergeIndex},
	}
	if cfg.AsyncOcalls {
		// The parked request's re-entry points. They are part of the
		// measured surface: an async build attests differently from a
		// blocking one.
		ecalls = append(ecalls, ecall{"resume", trusted.handleResume}, ecall{"hedge", trusted.handleHedge},
			ecall{"abandon", trusted.handleAbandon})
	}
	if cfg.BatchMax > 0 {
		// The vectorized request crossing is its own measured surface: a
		// batching build attests differently from a one-request-per-ecall
		// one.
		ecalls = append(ecalls, ecall{"request-batch", trusted.handleRequestBatch})
	}
	for _, e := range ecalls {
		if err := builder.RegisterECall(e.name, e.handler); err != nil {
			return nil, err
		}
	}
	encl, err := builder.Build()
	if err != nil {
		return nil, err
	}
	sealer, err := seal.New(platform, encl, enclave.PolicyMRSIGNER, [16]byte{'h', 'i', 's', 't'})
	if err != nil {
		encl.Destroy()
		return nil, err
	}
	trusted.sealer = sealer

	conns := newConnTable(cfg.EngineLink)
	if cfg.AsyncOcalls {
		conns.fetch = newFetcher(conns)
		trusted.recordFetch = conns.fetch.record
	}
	for name, h := range conns.handlers() {
		if err := encl.RegisterOCall(name, h); err != nil {
			encl.Destroy()
			return nil, err
		}
	}

	service := cfg.AttestationService
	qe := cfg.QuotingEnclave
	if service == nil {
		service, err = attestation.NewService()
		if err != nil {
			encl.Destroy()
			return nil, err
		}
	}
	if qe == nil {
		qe, err = attestation.NewQuotingEnclave()
		if err != nil {
			encl.Destroy()
			return nil, err
		}
		service.RegisterQE(qe)
	}

	p := &Proxy{
		cfg:      cfg,
		platform: platform,
		encl:     encl,
		trusted:  trusted,
		conns:    conns,
		qe:       qe,
		service:  service,
		latency:  metrics.NewHistogram(),
	}
	if cfg.AsyncOcalls {
		p.pipeline = newPipelineRuntime(p, cfg.PipelineDepth, cfg.BatchMax, cfg.BatchWindow)
		p.pipeline.start()
	}
	mux := http.NewServeMux()
	HandleFront(mux, p)
	mux.HandleFunc("/stats", p.handleStats)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/events", p.handleEvents)
	if cfg.Observability {
		// pprof rides the same admin mux. Profiles describe the untrusted
		// runtime (goroutines, heap) — never enclave-resident query state.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	p.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	p.front = serve.Wrap(p.http)

	// Run the init ecall, mirroring the paper's interface.
	if _, err := encl.ECall(context.Background(), "init", nil); err != nil {
		encl.Destroy()
		return nil, err
	}
	// Restore persisted history: the host hands the enclave the sealed
	// blob; only the enclave can open it.
	if cfg.StatePath != "" {
		blob, err := os.ReadFile(cfg.StatePath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First start: nothing to restore.
		case err != nil:
			encl.Destroy()
			return nil, fmt.Errorf("proxy: read state: %w", err)
		default:
			if _, err := encl.ECall(context.Background(), "restore", blob); err != nil {
				encl.Destroy()
				return nil, fmt.Errorf("proxy: restore state: %w", err)
			}
		}
	}
	return p, nil
}

// VendorSigner is the MRSIGNER identity of the (fictional) X-Search vendor.
var VendorSigner = enclave.Measurement{0x58, 0x53} // "XS"

// Scaling-layer defaults (engine connection pool, result cache, upstream
// circuit breaker).
const (
	// DefaultPoolSize is the idle engine-connection bound when
	// Config.PoolSize is zero.
	DefaultPoolSize = 8
	// poolIdleTimeout is how long a pooled connection may idle before
	// checkout discards it (FIFO).
	poolIdleTimeout = 60 * time.Second
	// DefaultCacheTTL bounds result-cache freshness when Config.CacheTTL
	// is zero.
	DefaultCacheTTL = 60 * time.Second
	// DefaultIndexTTL bounds answer-index document freshness when
	// Config.IndexTTL is zero. Longer than the cache TTL: the index
	// serves rephrasings, whose value outlives an exact repeat's.
	DefaultIndexTTL = 120 * time.Second
	// DefaultUpstreamFailThreshold consecutive failures open an engine
	// upstream's circuit breaker.
	DefaultUpstreamFailThreshold = 3
	// DefaultUpstreamCooldown is how long an open breaker excludes its
	// upstream before admitting a probe request.
	DefaultUpstreamCooldown = time.Second
	// DefaultPipelineDepth bounds concurrently staged requests when
	// Config.AsyncOcalls is on and Config.PipelineDepth is zero.
	DefaultPipelineDepth = 64
	// DefaultHedgeDelay is the hedge delay used while an upstream has too
	// few observed fetches for a p95-derived delay (Config.HedgeDelay
	// zero). It applies per upstream: a hedge chain re-arms against the
	// upstream the previous hedge actually went to, so a cold hedge
	// target gets this documented default rather than the primary's
	// stale p95 (which could fire the next hedge immediately, or never).
	DefaultHedgeDelay = 10 * time.Millisecond
	// DefaultBatchWindow is how long a deepening request batch waits for
	// more entries before submitting (Config.BatchMax set, BatchWindow
	// zero). Small against any engine round trip: the window trades a
	// bounded latency add for fuller batches only when the queue already
	// shows depth.
	DefaultBatchWindow = 200 * time.Microsecond
	// snapshotTimeout bounds Shutdown's sealed-history snapshot ecall,
	// which runs on its own context so a drain deadline that expired on
	// stragglers cannot skip state persistence.
	snapshotTimeout = 5 * time.Second
	// stragglerGrace bounds how long Shutdown waits, after cancelling
	// in-flight fetches, for the cancelled completions to finalize
	// requests that outlived the drain deadline. It deliberately runs
	// AFTER the caller's ctx expired (that is the only way stragglers
	// exist), so it is kept small: completions traverse the rings in
	// milliseconds once their sockets close. Free when the drain
	// succeeded (nothing in flight).
	stragglerGrace = 250 * time.Millisecond
)

// Measurement returns the enclave's MRENCLAVE, which clients pin.
func (p *Proxy) Measurement() enclave.Measurement { return p.encl.Measurement() }

// AttestationService returns the service verifying this proxy's quotes.
func (p *Proxy) AttestationService() *attestation.Service { return p.service }

// Start serves the HTTP front on addr ("127.0.0.1:0" picks a port). A
// second Start returns serve.ErrAlreadyStarted; fatal accept-loop errors
// surface on ServeErr instead of being silently discarded.
func (p *Proxy) Start(addr string) error {
	if err := p.front.Start(addr); err != nil {
		if errors.Is(err, serve.ErrAlreadyStarted) {
			return fmt.Errorf("proxy: front %w", serve.ErrAlreadyStarted)
		}
		return fmt.Errorf("proxy: listen %s: %w", addr, err)
	}
	return nil
}

// ServeErr delivers at most one fatal HTTP-front serve error (the accept
// loop died after a successful Start).
func (p *Proxy) ServeErr() <-chan error { return p.front.Err() }

// Addr returns the bound address after Start.
func (p *Proxy) Addr() string { return p.front.Addr() }

// URL returns the proxy base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Shutdown stops the HTTP front, drains in-flight pipeline requests (each
// already-admitted request finishes its staged fetch, bounded by ctx),
// persists the sealed history when configured, and destroys the enclave.
// When the drain deadline expires with requests still in flight, Shutdown
// may overrun ctx by up to stragglerGrace while the cancelled stragglers
// finalize.
func (p *Proxy) Shutdown(ctx context.Context) error {
	var err error
	if p.front != nil {
		err = p.front.Shutdown(ctx)
	}
	if p.pipeline != nil {
		if derr := p.pipeline.drain(ctx); derr != nil && err == nil {
			err = derr
		}
		// Cancel in-flight fetches BEFORE stopping the resume workers:
		// stragglers past the drain deadline then flow through the resume
		// ecall's cancelled-completion path and finalize with a definitive
		// reply (the closed step handler cancels their failovers too) instead
		// of parking until the stop signal. The bounded re-drain gives
		// those cancelled completions time to traverse the rings — without
		// it, close(stop) races the completion and the straggler usually
		// gets the generic stop error instead.
		p.conns.closeAll()
		grace, cancel := context.WithTimeout(context.Background(), stragglerGrace)
		_ = p.pipeline.drain(grace)
		cancel()
		// Unpark any TLS flight coroutine still waiting on a step before
		// the resume workers stop: a parked flight holds no TCS, but its
		// goroutine would leak past Destroy.
		p.trusted.stopFlights()
		p.pipeline.stopDispatch()
	}
	if p.cfg.StatePath != "" {
		// On its own context: the caller's ctx is already expired whenever
		// the drain hit its deadline, and an expired ctx would skip the
		// snapshot ecall — silently losing the history the operator asked
		// to persist precisely on shutdowns under load.
		snapCtx, cancel := context.WithTimeout(context.Background(), snapshotTimeout)
		blob, serr := p.encl.ECall(snapCtx, "snapshot", nil)
		cancel()
		if serr == nil {
			serr = os.WriteFile(p.cfg.StatePath, blob, 0o600)
		}
		if serr != nil && err == nil {
			err = fmt.Errorf("proxy: persist state: %w", serr)
		}
	}
	p.conns.closeAll()
	p.encl.Destroy()
	return err
}

// Crash simulates abrupt host failure: the enclave is destroyed and its
// engine connections dropped with NO orderly teardown — no history
// snapshot, no sealed-state persistence, no graceful HTTP drain. Fleet
// availability experiments use it; operators should use Shutdown.
func (p *Proxy) Crash() {
	p.trusted.stopFlights()
	if p.pipeline != nil {
		p.pipeline.stopDispatch()
	}
	p.conns.closeAll()
	p.encl.Destroy()
}

// Healthy reports whether the proxy is still able to serve: a destroyed
// enclave (crash, Shutdown, fleet drain) rejects every ecall and never
// recovers, and a stopped pipeline dispatcher rejects every new request
// even while the enclave briefly outlives it during an orderly teardown —
// in that window requests fail with "pipeline stopped", and a gateway that
// believed the shard healthy would blame the request instead of failing
// over. A false result is permanent either way. Fleet gateways use this as
// the shard liveness probe.
func (p *Proxy) Healthy() bool {
	if p.encl.Destroyed() {
		return false
	}
	if pl := p.pipeline; pl != nil {
		select {
		case <-pl.stop:
			return false
		default:
		}
	}
	return true
}

// LoadSignals is the compact per-node load sample the fleet autoscaler
// consumes: admission occupancy, the request-latency tail, EPC heap
// pressure, and the history-window fill the k-anonymity floor reasons
// about. All signals are cheap gauges — no locks beyond the stats the node
// already keeps.
type LoadSignals struct {
	// InFlight and Capacity are the currently admitted requests and the
	// admission bound they count against: PipelineDepth on the async path,
	// the enclave's TCS count on the blocking path. Occupancy is their
	// ratio (1.0 = saturated; further requests queue).
	InFlight  int
	Capacity  int
	Occupancy float64
	// LatencyP95 is the end-to-end query latency tail (zero before the
	// first completed request).
	LatencyP95 time.Duration
	// EPCFraction is the enclave heap's share of the platform EPC limit —
	// history plus cache bytes over the sealed-memory budget.
	EPCFraction float64
	// HistoryLen and HistoryCapacity describe the obfuscation window:
	// how many real past queries it holds against its sliding-window
	// bound. The fleet's scale-down floor uses them to refuse retirements
	// whose sealed handoff would overflow (and so FIFO-evict) a single
	// window.
	HistoryLen      int
	HistoryCapacity int
}

// Load returns the node's current load sample.
func (p *Proxy) Load() LoadSignals {
	ls := LoadSignals{InFlight: int(p.inflight.Load())}
	if pl := p.pipeline; pl != nil {
		ls.InFlight = pl.inFlight()
		ls.Capacity = pl.depth
	} else {
		ls.Capacity = p.encl.TCSCount()
	}
	if ls.Capacity > 0 {
		ls.Occupancy = float64(ls.InFlight) / float64(ls.Capacity)
	}
	if snap := p.latency.Snapshot(); snap.Count > 0 {
		ls.LatencyP95 = snap.P95
	}
	es := p.encl.Stats()
	if es.EPCLimit > 0 {
		ls.EPCFraction = float64(es.HeapBytes) / float64(es.EPCLimit)
	}
	h := p.trusted.obfuscator.History()
	ls.HistoryLen = h.Len()
	ls.HistoryCapacity = h.Capacity()
	return ls
}

// Handshake establishes an attested secure channel without going through
// the HTTP front: the enclave completes the channel offer, the quoting
// enclave quotes the report binding the channel key, and the attestation
// service verifies the quote against the caller's nonce. Fleet gateways
// call it directly to route handshakes to a shard.
func (p *Proxy) Handshake(ctx context.Context, offer json.RawMessage, nonce []byte) (*HandshakeResponse, error) {
	p.handshakes.Add(1)
	reply, err := p.ecall(ctx, envelope{Type: typeHandshake, Offer: offer})
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	// Produce the quote for the enclave-bound report data and have the
	// attestation service verify it (both steps are untrusted plumbing;
	// the client re-verifies everything).
	var reportData [64]byte
	copy(reportData[:], reply.ReportData)
	quote := p.qe.Quote(p.encl.Report(reportData))
	vr, err := p.service.Verify(quote, nonce)
	if err != nil {
		p.errors.Add(1)
		return nil, fmt.Errorf("attestation: %w", err)
	}
	vrJSON, err := json.Marshal(vr)
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	return &HandshakeResponse{
		Offer:              reply.Offer,
		Session:            reply.Session,
		VerificationReport: vrJSON,
	}, nil
}

// Secure serves one sealed query record on an established session and
// returns the sealed response record. Fleet gateways call it directly to
// route a pinned session's traffic to its shard.
func (p *Proxy) Secure(ctx context.Context, session string, record []byte) ([]byte, error) {
	reply, err := p.run(ctx, envelope{Type: typeSecure, Session: session, Record: record})
	return reply.Record, err
}

// SnapshotHistory returns the query history as an enclave-sealed blob
// (MRSIGNER policy): the host can store or forward it but never read it.
// A fleet drain hands this blob to the successor shard's MergeHistory, so
// the privacy state survives re-sharding without leaving a trusted
// boundary in plaintext.
func (p *Proxy) SnapshotHistory(ctx context.Context) ([]byte, error) {
	return p.encl.ECall(ctx, "snapshot", nil)
}

// MergeHistory unseals a history blob produced by SnapshotHistory on a
// same-vendor enclave sharing this platform's sealing root and appends its
// queries to the local window (oldest first, FIFO eviction applies),
// charging the EPC for the growth. It returns how many queries arrived and
// the net byte delta.
func (p *Proxy) MergeHistory(ctx context.Context, blob []byte) (added int, bytes int64, err error) {
	return p.mergeECall(ctx, "merge", blob)
}

func (p *Proxy) mergeECall(ctx context.Context, name string, blob []byte) (added int, bytes int64, err error) {
	out, err := p.encl.ECall(ctx, name, blob)
	if err != nil {
		return 0, 0, err
	}
	var rep mergeReply
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, 0, fmt.Errorf("proxy: %s reply: %w", name, err)
	}
	return rep.Added, rep.Bytes, nil
}

// SnapshotIndex returns the answer index as an enclave-sealed blob
// (MRSIGNER policy, its own AAD): the host can move it but never read
// it. With the index disabled it returns an empty blob that MergeIndex
// treats as a no-op, so the fleet's drain path is uniform.
func (p *Proxy) SnapshotIndex(ctx context.Context) ([]byte, error) {
	return p.encl.ECall(ctx, "snapshot-index", nil)
}

// MergeIndex unseals an answer-index blob produced by SnapshotIndex on a
// same-vendor enclave sharing this platform's sealing root and merges
// its still-fresh documents into the local index, charging the EPC per
// document under the index lock (so heap == history + cache + index
// holds at every step). An empty blob, or a merge into a node with the
// index disabled, is a no-op. Returns documents added and bytes charged.
func (p *Proxy) MergeIndex(ctx context.Context, blob []byte) (added int, bytes int64, err error) {
	return p.mergeECall(ctx, "merge-index", blob)
}

// Stats reports request counters plus enclave resource accounting and the
// scaling layer's gauges (connection reuse, cache effectiveness).
type Stats struct {
	Requests   uint64        `json:"requests"`
	Handshakes uint64        `json:"handshakes"`
	Errors     uint64        `json:"errors"`
	Enclave    enclave.Stats `json:"enclave"`
	HistoryLen int           `json:"history_len"`
	HistoryB   int64         `json:"history_bytes"`
	// Engine connection pools, aggregated across every upstream:
	// reuses/dials partition all checkouts, so PoolReuseRatio =
	// reuses/(reuses+dials). Per-upstream breakdowns live in Upstreams.
	PoolIdle       int     `json:"pool_idle"`
	PoolReuses     uint64  `json:"pool_reuses"`
	PoolDials      uint64  `json:"pool_dials"`
	PoolEvicted    uint64  `json:"pool_evicted"`
	PoolReuseRatio float64 `json:"pool_reuse_ratio"`
	// Result cache: hits/misses partition all cache lookups.
	CacheLen      int     `json:"cache_len"`
	CacheB        int64   `json:"cache_bytes"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Answer index (the in-enclave answer tier): indexed documents, their
	// charged (arena-quantized) EPC footprint, and hits/misses over the
	// index probes that follow a cache miss. LocalHitRatio is the
	// fraction of probed queries answered entirely inside the enclave —
	// by the exact-key cache or the index — with zero upstream round
	// trips.
	IndexDocs     int     `json:"index_docs,omitempty"`
	IndexB        int64   `json:"index_bytes,omitempty"`
	IndexHits     uint64  `json:"index_hits,omitempty"`
	IndexMisses   uint64  `json:"index_misses,omitempty"`
	IndexHitRatio float64 `json:"index_hit_ratio,omitempty"`
	LocalHitRatio float64 `json:"local_hit_ratio,omitempty"`
	// Single-flight coalescing: shared/led partition every engine-bound
	// fetch (cache hits never reach a flight), so CoalesceRatio =
	// shared/(shared+led) — the fraction of engine-bound requests that
	// piggybacked on another request's round trip.
	CoalesceShared uint64  `json:"coalesce_shared"`
	CoalesceLed    uint64  `json:"coalesce_led"`
	CoalesceRatio  float64 `json:"coalesce_ratio"`
	// RateLimited counts engine-bound attempts the per-upstream token
	// bucket turned away, summed across upstreams (zero when rate limiting
	// is disabled).
	RateLimited uint64 `json:"rate_limited"`
	// Async pipeline gauges (zero when AsyncOcalls is off). AsyncSubmitted
	// and AsyncCompleted count switchless fetch submissions and serviced
	// completions; PipelineInFlight is the currently staged request count
	// against PipelineDepth.
	AsyncSubmitted   uint64 `json:"async_submitted,omitempty"`
	AsyncCompleted   uint64 `json:"async_completed,omitempty"`
	PipelineInFlight int    `json:"pipeline_in_flight,omitempty"`
	PipelineDepth    int    `json:"pipeline_depth,omitempty"`
	// Hedging gauges: hedge fetches issued, hedges that beat the primary,
	// and losers cancelled after the winner landed.
	HedgeAttempts  uint64 `json:"hedge_attempts,omitempty"`
	HedgeWins      uint64 `json:"hedge_wins,omitempty"`
	HedgeCancelled uint64 `json:"hedge_cancelled,omitempty"`
	// Ecall batching gauges (zero when BatchMax is off). BatchesSubmitted
	// counts vectorized boundary crossings (request and resume batches);
	// the occupancy percentiles describe how many requests shared one
	// request-batch crossing — the signal BatchWindow trades latency
	// against.
	BatchesSubmitted  uint64  `json:"batches_submitted,omitempty"`
	BatchOccupancyP50 float64 `json:"batch_occupancy_p50,omitempty"`
	BatchOccupancyP95 float64 `json:"batch_occupancy_p95,omitempty"`
	// End-to-end query latency percentiles (plain + secure paths),
	// recorded on a fixed-bucket histogram with no hot-path allocations.
	LatencyCount uint64        `json:"latency_count,omitempty"`
	LatencyP50   time.Duration `json:"latency_p50_ns,omitempty"`
	LatencyP95   time.Duration `json:"latency_p95_ns,omitempty"`
	LatencyP99   time.Duration `json:"latency_p99_ns,omitempty"`
	LatencyMean  time.Duration `json:"latency_mean_ns,omitempty"`
	// Stages holds the trusted-side per-stage latency summaries when
	// Observability is on: one aggregate snapshot per pipeline stage
	// (closed obs.StageNames set), never per-request events. Zero-count
	// stages are omitted.
	Stages map[string]metrics.LatencySnapshot `json:"stages,omitempty"`
	// EventsLogged is the structured event ring's current occupancy
	// (bounded by EventLogSize, drop-oldest).
	EventsLogged int `json:"events_logged,omitempty"`
	// Upstreams is the per-engine-upstream breakdown: traffic share,
	// failures, breaker state, and each upstream's pool gauges. Sorted by
	// host so snapshots diff cleanly regardless of configuration order.
	Upstreams []UpstreamStats `json:"upstreams,omitempty"`
}

// Stats returns a snapshot.
func (p *Proxy) Stats() Stats {
	h := p.trusted.obfuscator.History()
	s := Stats{
		Requests:   p.requests.Load(),
		Handshakes: p.handshakes.Load(),
		Errors:     p.errors.Load(),
		Enclave:    p.encl.Stats(),
		HistoryLen: h.Len(),
		HistoryB:   h.Bytes(),
	}
	if pl := p.pipeline; pl != nil {
		s.PipelineInFlight = pl.inFlight()
		s.PipelineDepth = pl.depth
		s.AsyncSubmitted = s.Enclave.AsyncSubmitted
		s.AsyncCompleted = s.Enclave.AsyncCompleted
		s.HedgeAttempts = p.trusted.hedgeAttempts.Load()
		s.HedgeWins = p.trusted.hedgeWins.Load()
		s.HedgeCancelled = p.trusted.hedgeCancelled.Load()
		if bs := pl.bstats; bs != nil {
			s.BatchesSubmitted = bs.submitted.Load()
			s.BatchOccupancyP50, s.BatchOccupancyP95 = bs.percentiles()
		}
	}
	if snap := p.latency.Snapshot(); snap.Count > 0 {
		s.LatencyCount = snap.Count
		s.LatencyP50 = snap.P50
		s.LatencyP95 = snap.P95
		s.LatencyP99 = snap.P99
		s.LatencyMean = snap.Mean
	}
	if reg := p.trusted.registry; reg != nil {
		now := time.Now()
		s.Upstreams = make([]UpstreamStats, len(reg.ups))
		for i, u := range reg.ups {
			us := u.stats(now, reg.threshold)
			if f := p.conns.fetch; f != nil {
				if h := f.latencyFor(u.host); h != nil {
					fsnap := h.Snapshot()
					us.FetchP50 = fsnap.P50
					us.FetchP95 = fsnap.P95
					us.FetchP99 = fsnap.P99
				}
			}
			s.Upstreams[i] = us
			s.PoolIdle += us.PoolIdle
			s.PoolReuses += us.PoolReuses
			s.PoolDials += us.PoolDials
			s.PoolEvicted += us.PoolEvicted
			s.RateLimited += us.RateLimited
		}
		sort.Slice(s.Upstreams, func(i, j int) bool {
			return s.Upstreams[i].Host < s.Upstreams[j].Host
		})
		// Derive the ratios from the snapshotted counts so the reported
		// fields always satisfy their own identity under concurrency.
		if total := s.PoolReuses + s.PoolDials; total > 0 {
			s.PoolReuseRatio = float64(s.PoolReuses) / float64(total)
		}
	}
	s.CoalesceShared, s.CoalesceLed = p.trusted.coalesce.Counts()
	if total := s.CoalesceShared + s.CoalesceLed; total > 0 {
		s.CoalesceRatio = float64(s.CoalesceShared) / float64(total)
	}
	if cache := p.trusted.cache; cache != nil {
		s.CacheLen = cache.Len()
		s.CacheB = cache.Bytes()
		s.CacheHits, s.CacheMisses = p.trusted.cacheHits.Counts()
		if total := s.CacheHits + s.CacheMisses; total > 0 {
			s.CacheHitRatio = float64(s.CacheHits) / float64(total)
		}
	}
	if idx := p.trusted.index; idx != nil {
		s.IndexDocs = idx.Docs()
		s.IndexB = idx.Bytes()
		s.IndexHits, s.IndexMisses = p.trusted.indexHits.Counts()
		if total := s.IndexHits + s.IndexMisses; total > 0 {
			s.IndexHitRatio = float64(s.IndexHits) / float64(total)
		}
	}
	// LocalHitRatio: probed queries answered without an upstream round
	// trip. With the cache on, every probed query counts one cache lookup
	// (the index probe only runs on cache misses); cache-off index-on
	// counts index probes alone.
	localHits := s.CacheHits + s.IndexHits
	localTotal := s.CacheHits + s.CacheMisses
	if p.trusted.cache == nil {
		localTotal = s.IndexHits + s.IndexMisses
	}
	if localTotal > 0 {
		s.LocalHitRatio = float64(localHits) / float64(localTotal)
	}
	s.Stages = p.trusted.stages.Snapshot()
	s.EventsLogged = p.trusted.events.Len()
	return s
}

// Events returns the proxy's structured event log (nil when neither
// Observability nor an injected fleet log enabled it).
func (p *Proxy) Events() *obs.Log { return p.trusted.events }

// StageSnapshots returns the per-stage latency summaries (nil when
// Observability is off or nothing has been recorded yet).
func (p *Proxy) StageSnapshots() map[string]metrics.LatencySnapshot {
	return p.trusted.stages.Snapshot()
}

// ServeQuery runs one plain query through the full enclave pipeline
// (ecall -> Algorithm 1 -> engine fetch or echo -> Algorithm 2), bypassing
// the HTTP front. The capacity experiments use it to measure the proxy's
// processing limit without the host network stack in the way, as the
// paper's wrk2-on-bare-metal setup does.
func (p *Proxy) ServeQuery(ctx context.Context, query string) ([]core.Result, error) {
	reply, err := p.run(ctx, envelope{Type: typePlain, Query: query})
	return reply.Results, err
}

// ecall sends an envelope through the "request" ecall.
func (p *Proxy) ecall(ctx context.Context, req envelope) (envelopeReply, error) {
	var reply envelopeReply
	out, err := p.encl.ECall(ctx, "request", req.encode())
	if err != nil {
		return reply, err
	}
	if err := reply.decode(out); err != nil {
		return reply, fmt.Errorf("proxy: bad reply: %w", err)
	}
	return reply, nil
}

// handleStats serves GET /stats (operational, non-sensitive aggregates).
//
// Consistency: the snapshot is assembled field by field from independent
// atomics and per-subsystem locks, NOT under one global lock — each field
// is internally consistent, but cross-field identities (e.g. requests ==
// errors + successes) may be off by the handful of requests that completed
// mid-snapshot. Derived ratios are computed from the snapshotted counts,
// so every reported ratio satisfies its own identity. See the
// "Observability" section in the package docs.
func (p *Proxy) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p.Stats())
}
