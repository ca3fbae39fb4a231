// Package xsearch is a Go implementation of X-Search ("X-Search:
// Revisiting Private Web Search using Intel SGX", Middleware '17): a
// privacy proxy that lets users query a web search engine without the
// engine being able to link queries to their identity or distinguish their
// real interests from fake ones.
//
// # Architecture
//
// Three parties cooperate (paper §4, Figure 2):
//
//   - The Client (NewClient) runs in the user's trust domain. It verifies
//     the proxy enclave's remote attestation, establishes an encrypted
//     channel terminating inside the enclave, and sends queries through it.
//   - The Proxy (NewProxy) runs on an untrusted host. Inside a (simulated)
//     SGX enclave it decrypts each query, OR-aggregates it with k real past
//     queries drawn from an in-enclave sliding-window history (Algorithm 1),
//     forwards the obfuscated query to an engine upstream, filters the
//     merged results back down to those matching the original query
//     (Algorithm 2), and returns them over the channel. A plain HTTP front
//     (GET /search?q=...) serves third-party clients such as curl.
//   - The upstream registry (WithEngines) is the seam between the proxy
//     and its engines: a set of EngineSpec upstreams, each with its own
//     in-enclave connection pool, pinned TLS roots, fan-out weight, and
//     circuit-breaker health state. Queries spread across healthy
//     upstreams by weight (CYCLOSA-style load spreading); a failing
//     upstream is failed over transparently and, once its breaker opens,
//     costs one probe per cooldown instead of a stall per request.
//   - The Engine (NewEngine) is the search engine substrate: a ranked
//     inverted-index engine with Bing-compatible OR semantics and the
//     honest-but-curious behaviour the adversary model assumes.
//   - The Fleet (NewFleet) stacks a session-routing gateway above N
//     independent proxy-enclave shards, lifting the single-enclave EPC and
//     single-host core bounds. It serves the same HTTP surface as one
//     Proxy, so brokers point at a fleet unchanged.
//
// # Scaling layer
//
// The proxy's hot path — the engine round trip of §6.3 — is amortized by
// four in-enclave mechanisms, all living entirely inside the trusted
// boundary:
//
//   - A per-upstream connection pool (WithEnginePool, default size 8 per
//     upstream) keeps keep-alive engine connections — including
//     enclave-terminated TLS sessions — alive across requests, the same
//     pool whether the fetch blocks or flies: evicting FIFO on overflow or
//     idle expiry, and on the blocking stage health-checking each on
//     checkout via the sock_check ocall.
//   - A result cache (WithResultCache, off by default) serves repeated
//     queries without an engine round trip. It is keyed on the ORIGINAL
//     query (obfuscated queries differ every time by construction),
//     bounded by bytes and TTL, and every byte it holds is charged to the
//     EPC through the same env.Alloc/env.Free contract as the query
//     history, so the paper's Figure 6 memory accounting stays honest.
//     Obfuscation still runs before the cache lookup: the history grows
//     identically with and without caching.
//   - Single-flight coalescing (on by default, WithoutCoalescing to
//     disable) collapses N concurrent identical original queries into one
//     engine round trip: the first becomes the leader, the rest share its
//     filtered result, and the cache entry is charged to the EPC exactly
//     once. Obfuscation still runs per request, so the history grows
//     identically with and without coalescing.
//   - Multi-engine fan-out (WithEngines) spreads obfuscated queries
//     across weighted upstreams with automatic failover and a
//     circuit-breaker cooldown (WithUpstreamBreaker) around dead ones,
//     plus an optional per-upstream token bucket
//     (WithUpstreamRateLimit) so no node exceeds its quota against a
//     shared engine.
//
// # Fleet layer
//
// Above the single node, NewFleet shards the whole system: N independent
// proxy enclaves — each with its own (simulated) SGX platform, EPC
// budget, history window, and full scaling-layer configuration
// (WithShardConfig) — behind a gateway that routes by rendezvous (HRW)
// hashing. Each attested session is pinned to one shard, so a user's
// obfuscation always draws fakes from the same in-enclave history window
// and Algorithm 1's k-anonymity semantics hold per shard; plain queries
// hash on the query text, keeping per-shard caches and coalescing
// effective fleet-wide. The gateway health-checks shards, fails work over
// to the next-ranked live shard on a crash (sessions on the dead shard
// re-attest transparently), and on a planned drain (DrainShard) migrates
// the departing shard's history window to its successor as a sealed blob
// — the untrusted host moves opaque bytes; only the successor's enclave,
// holding the fleet's provisioned sealing root, can open them. Throughput
// scales near-linearly with shards while the per-shard EPC invariant
// (heap == history + cache + index) keeps holding.
//
// Autoscaling (WithAutoscale) makes the ring elastic between a minimum
// and maximum shard count: the gateway samples the load signals every
// shard already exports — async-pipeline admission occupancy, the p95
// request-latency tail, and EPC heap pressure — and scales up by spawning
// a shard on its own simulated platform, re-keyed under the fleet sealing
// root and inserted into the HRW ring (new sessions rebalance naturally;
// existing sessions stay pinned), or scales down by draining the coldest
// shard through the same sealed handoff before retiring its enclave.
// A wide occupancy hysteresis band plus a cooldown between scale events
// keeps the fleet from flapping, and a scale-down is refused when the
// merged history would overflow a single shard's sliding window — the
// k-anonymity floor: FIFO eviction would silently discard real past
// queries, the pool Algorithm 1 draws fakes from. Fleet.Stats reports the
// current ring size, scale-up/down counters, and the autoscaler's last
// decision reason; the decision core itself is a pure function
// (fleet.DecideScale), unit-tested without enclaves; internal/fleet's
// autoscaler tests tick the loop up from real occupancy and down from an
// idle fleet, and its chaos soaks hold every request across every
// spawn/drain/retire event.
//
// # Client edge
//
// Between the broker and the gateway, the default transport is one HTTP
// request per call — simple, but at millions of users the edge drowns
// in connections before the enclaves are warm: every attested session
// holds a dedicated conn, and each conn costs the gateway a goroutine
// plus read/write buffers. WithMuxTransport replaces that edge with one
// long-lived multiplexed connection per client host: every call —
// attestation handshakes, sealed secure records, plain queries — is a
// logical stream framed onto the shared conn (internal/mux), with
// per-stream flow-control credits so one large response never stalls
// the rest, keepalive heartbeats with dead-peer detection, and hostile-
// input caps on every frame mirroring the enclave wire parser. Two
// carriers feed the same gateway demux: a raw-TCP listener
// (Fleet.StartMux, -mux-listen) for broker hosts, and a hand-rolled
// RFC 6455 WebSocket upgrade at /mux on the existing HTTP front
// (WithWebSocketTransport) so browser-extension clients connect
// directly. Past the edge both call the same Handshake/Secure/ServeQuery
// methods as the HTTP handlers, so a mux client and an HTTP client are
// indistinguishable to the enclaves, and the bodies are the same on both
// edges: handshakes and plain queries are JSON, a secure call is the
// session id and the sealed record raw (no JSON, no base64) with the raw
// sealed reply back — as application/octet-stream over HTTP, read once
// into a buffer sized from its Content-Length and capped on both ends. A
// small mux call costs the conn one write and one read per direction.
// Inside the record the plaintext stays JSON ({"query","count"} up,
// {"results","err"} back) — that is the client contract — but no end
// reflects to speak it: internal/core holds one hand-written codec for
// result lists, byte-identical to encoding/json on the way out and strict
// on the way in, and every list that leaves a process (sealed replies,
// the plain /search, the broker's local endpoint) goes through it.
//
// The transport conn is expendable by design: the secure channel's keys
// live in the broker and the enclave, never in the carrier, so when an
// edge LB drops the conn mid-session the broker re-dials, announces its
// live sessions (a resume the gateway counts, not a handshake), re-seals
// the in-flight query as a fresh record, and continues — zero lost
// replies, zero re-attestations. Remote refusals stay distinct from
// transport loss so session eviction still takes the full re-attestation
// path. Fleet.Stats reports conns held, total accepted, streams served,
// and sessions resumed; the repository benchmark's `edge` workload
// (bench/) measures a secure call over this edge.
//
// # Request stage
//
// The trusted request stage exists once (internal/proxy/stage.go) and
// every configuration runs it: open (decode, open the sealed record) →
// obfuscate (Algorithm 1 + the history's EPC settlement) → probe (echo,
// result cache, answer index) → engine → settle (Algorithm 2, redirect
// stripping, cache and index stores) → reply (seal). The configurations
// are parameter settings, not parallel implementations. The paper's
// interface — one "request" ecall over four socket ocalls (§5.3.3) — is
// the engine stage run to completion inside the ecall. WithAsyncOcalls
// parks the request there instead and finishes it in a "resume" ecall.
// WithBatching sends N requests through the same stages in one
// "request-batch" crossing; an unbatched request is a batch of one.
// Package internal/proxy documents the stage table — which function runs
// in which ecall under each configuration, and what the host can observe
// at each seam — the full ecall list and the seam table (which message
// is binary, which is still JSON and why), all of it part of the measured
// identity (ident v2.2).
//
// Why park: the blocking engine stage holds one enclave thread (TCS) for
// the full engine round trip — the thread-occupancy cost the SGX
// switchless/async-call literature attacks. Parked, the enclave has
// submitted the fetch to a switchless-style ocall ring (a shared-memory
// submission/completion ring pair serviced by untrusted worker
// goroutines, paying no boundary transition) and RETURNED from the ecall,
// so obfuscation and filtering of request N+1 overlap the engine wait of
// request N. The completion re-enters through "resume", which does the
// breaker accounting and, for the winning response, settle and reply
// (the cache charged exactly once per flight); coalesced followers'
// replies ride the same "resume", each sealed on its own session. With few
// TCS and a realistic engine latency parking multiplies throughput several
// times over.
//
// On the same seam, WithHedging races slow upstreams: when a fetch has
// not answered after a configurable delay — or, by default, after the
// primary upstream's observed p95 fetch latency — the enclave re-issues
// it to the next healthy upstream and the first response wins. The loser
// is cancelled without touching its breaker, failed attempts each count
// against their upstream exactly once, and coalesced followers never
// hedge (only flight leaders own fetches). With one slow upstream in the
// rotation, hedging collapses the p99 tail from the slow upstream's
// latency to roughly hedge-delay plus the fast upstream's latency.
// WithFetchTimeout is one absolute deadline over a whole fetch on both
// engine stages: an upstream that accepts the connection but never
// responds fails the fetch — and counts against its breaker — instead of
// pinning a TCS or an async worker.
//
// Why batch: even parked, every request pays two boundary crossings —
// "request" and "resume" — and with transitions priced (EENTER/EEXIT
// cost) that fixed tax bounds throughput regardless of TCS count.
// WithBatching adds group commit at the ecall seam: admitted requests
// queue briefly in front of a single batcher goroutine that coalesces up
// to BatchMax of them into one "request-batch" ecall — one obfuscator
// pass drawing noise for the whole batch, one EPC settlement, one
// pending-table critical section, one ring submission burst — and the
// resume workers carry up to BatchMax ready completions per "resume",
// dividing the transition tax by the batch occupancy. The policy is
// adaptive and the hold has to earn itself: a genuinely idle proxy (sole
// request in flight) submits immediately, requests found queued together
// are held up to BatchWindow for the batch to fill, and a lone request
// with others admitted is held only while the previous such hold
// actually collected a companion — a few callers parked at a slow engine
// are not a batch about to form, and stop paying the window after one
// empty one. Under real load batching improves latency as well as
// throughput, because requests stop queueing behind other requests'
// transition spins. Each batch entry parks individually, so hedges,
// coalescing and abandonment work unchanged. The repository benchmark's
// `pipeline` workload runs this configuration (async, batched, two TLS
// engines, 2 TCS).
//
// Proxy.Stats reports the node gauges (per-upstream pool reuse, breaker
// and rate-limit state in Stats.Upstreams — sorted by host for stable
// diffs — cache hit ratio, coalesce ratio, async/hedge counters, and
// p50/p95/p99 query latency from a fixed-bucket histogram, and
// batch-submission counts with request-batch occupancy percentiles) and
// Fleet.Stats aggregates them across shards next to the gateway's routing
// counters. Whether a change made any of this faster has one answer, the
// repository benchmark (bash bench/run.sh): its `paper` workload is the
// pooled blocking path, `repeat` the cached and indexed one, `pipeline`
// the async, batched, TLS one, and `edge` the fleet behind the mux edge.
//
// # Answer tier
//
// Beyond the exact-match result cache, WithLocalIndex (off by default)
// builds a trusted, mutable TF-IDF inverted index over recently fetched
// results inside each proxy enclave, beside the history and the cache.
// The trusted request stage probes cache → local index → upstream: a
// rephrased or near-repeat query whose terms match enough recently
// fetched documents (a confidence floor of minimum score and minimum
// matching documents guards relevance) is answered entirely in-enclave,
// with zero upstream round trips — the engine never learns the query
// was asked again. The index is forward-private on update: inserts run
// only in the settle stage, inside the ecall the fetch was paying
// anyway, memory charges are arena-quantized so the untrusted
// host observes only coarse, term-count-independent allocation sizes,
// and no per-term allocation pattern crosses the boundary. Every byte
// is charged through the same env.Alloc/env.Free contract as the
// history and the cache, extending the EPC invariant to heap == history
// + cache + index; eviction is FIFO by document with TTL expiry. On a
// planned drain the index migrates to the successor shard as a sealed
// blob through the same handoff seam as the history, and the enclave
// identity measures the index configuration. Proxy.Stats reports
// IndexHits/IndexDocs/IndexBytes and a LocalHitRatio combining
// cache and index serving; the benchmark's `repeat` workload runs with
// both warm.
//
// # Observability
//
// WithObservability (off by default) turns on a privacy-safe telemetry
// layer designed for this paper's threat model, where the host reading
// the telemetry IS the adversary. Two hard rules govern everything it
// emits. First, telemetry is content-free: no query text, result text,
// or any value derived from either ever reaches a metric, event, or log
// line — stage names, shard indices, and configured upstream hosts are
// the only label values, all from closed sets fixed at build or config
// time. Second, telemetry is constant-shape: the set of exported series
// does not depend on what users queried, so an adversary diffing two
// scrapes learns nothing SimAttack could use.
//
// The layer has four parts. Per-request stage tracing records each hot
// path stage — admit, obfuscate, probe, submit, fetch, hedge, resume,
// filter, reply — into fixed-bucket per-stage latency histograms,
// exported only as aggregates (per-request events never exist, so they
// cannot leak). A Prometheus text-format /metrics endpoint on the proxy
// admin mux exports the full Stats surface; the fleet gateway serves a
// merged view (counts summed, percentile tails from the worst shard,
// the same conservative rule as Fleet.Stats) with a per-shard ?shard=N
// selector, which /stats also honors. A structured event log
// ring-buffers JSON events for fleet lifecycle transitions — scale
// decisions with their DecideScale inputs, scale-ups/downs, drains,
// kills, shard deaths, failovers, breaker transitions, hedge fires —
// exposed via /events and optionally streamed to stderr (-log-json);
// WithEventLog sizes the ring independently of the tracing. Fourth,
// pprof handlers ride the admin mux (profiles describe the untrusted
// runtime, never enclave-resident query state). A CI telemetry-lint gate
// (scripts/telemetry-lint.sh) statically asserts no content-carrying
// identifier reaches a telemetry call site outside the enclave.
//
// Stats snapshots, with or without the layer, are read without a global
// pause: each field is individually consistent (atomic or lock-guarded
// at its source) but fields may be microseconds apart, so cross-field
// arithmetic such as heap == history + cache + index can be transiently
// off by in-flight requests. Quiesce the proxy before asserting exact
// cross-field invariants.
//
// # Quick start
//
//	engine := xsearch.NewEngine()
//	_ = engine.Start("127.0.0.1:0")
//	defer engine.Shutdown(context.Background())
//
//	proxy, _ := xsearch.NewProxy(
//		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
//		xsearch.WithFakeQueries(3),
//	)
//	_ = proxy.Start("127.0.0.1:0")
//	defer proxy.Shutdown(context.Background())
//
//	client, _ := xsearch.NewClient(proxy.URL(),
//		xsearch.WithTrustedMeasurement(proxy.Measurement()),
//		xsearch.WithAttestationKey(proxy.AttestationKey()))
//	_ = client.Connect(context.Background())
//	results, _ := client.Search(context.Background(), "private web search")
//
// The enclave, attestation service, sealing, onion-routing and PEAS
// baselines, the SimAttack re-identification attack, and the full
// experiment harness reproducing the paper's Figures 1 and 3-7 live under
// internal/; cmd/xsearch-bench regenerates those figures and the paper's
// own ablations.
package xsearch
