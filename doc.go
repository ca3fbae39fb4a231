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
//     (Algorithm 2), and returns them over the channel.
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
//     single-host core bounds. Its client edge is one Proxy's — POST
//     /handshake and POST /secure, sealed calls only — so brokers point at
//     a fleet unchanged.
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
//   - Single-flight coalescing (always on, on both engine stages)
//     collapses N concurrent identical original queries into one engine
//     round trip: the first becomes the leader, the rest share its
//     filtered result, and the cache entry is charged to the EPC exactly
//     once. Obfuscation still runs per request, so the history grows
//     exactly as it would for N separate round trips.
//   - Multi-engine fan-out (WithEngines) spreads obfuscated queries
//     across weighted upstreams with automatic failover and a
//     circuit-breaker cooldown (WithUpstreamBreaker) around dead ones;
//     the breaker is the only gate on an upstream's admission.
//
// # Fleet layer
//
// Above the single node, NewFleet shards the whole system: N independent
// proxy enclaves — each with its own (simulated) SGX platform, EPC
// budget, history window, and full scaling-layer configuration
// (WithShardConfig) — behind a gateway that opens each attested session on
// the available shard with the fewest sessions it minted (the lowest index
// on a tie). The session lives on that shard, so its obfuscation always
// draws fakes from the same in-enclave history window and Algorithm 1's
// k-anonymity semantics hold per shard. The session id the broker holds
// names that shard ("<index>." + the enclave's id), so the gateway keeps
// no session table: each shard enclave's own table, as in the paper's
// single proxy, is the only one, and the gateway serves sealed calls only.
// The gateway health-checks shards and opens no session on a dead one
// (sessions on a crashed shard re-attest transparently onto live shards),
// and on a planned drain (DrainShard) migrates the departing shard's
// history window and answer index to its successor, picked as a new
// session's shard is, as one sealed blob — the untrusted host moves opaque
// bytes; only the successor's enclave, holding the fleet's provisioned
// sealing root, can open it, and it merges a blob once. Throughput scales
// near-linearly with shards while the per-shard EPC invariant (heap ==
// history + cache + index) keeps holding.
//
// The shard ring is fixed when NewFleet returns: KillShard and DrainShard
// retire a shard in place, and nothing adds one.
//
// # Client edge
//
// Between the broker and the gateway, the default transport is one HTTP
// request per call — simple, but at millions of users the edge drowns
// in connections before the enclaves are warm: every attested session
// holds a dedicated conn, and each conn costs the gateway a goroutine
// plus read/write buffers. WithMuxTransport replaces that edge with one
// long-lived multiplexed TCP connection per client host, served by the
// gateway's raw-TCP listener (Fleet.StartMux, -mux-listen): every sealed
// call — attestation handshakes and secure records — is a logical stream
// framed onto the shared conn (internal/mux). A large body goes out one
// chunk per write, so other streams' frames interleave with it instead of
// waiting; per-stream size caps and a stream cap bound what a session
// buffers, and TCP paces the conn. Keepalive heartbeats detect dead peers,
// and hostile-input caps on every frame mirror the enclave wire parser.
// Both ends run the mux defaults; nothing outside internal/mux configures
// a session. Neither
// edge carries a query in the clear: a stream or route that is not a
// handshake or a secure call is refused, per call. Past the edge both
// fronts call the same Handshake/Secure methods, so a mux client and an
// HTTP client are indistinguishable to the enclaves, and the bodies are
// the same on both edges: a handshake is JSON, a secure call is the
// session id and the sealed record raw (no JSON, no base64) with the raw
// sealed reply back — as application/octet-stream over HTTP, read once
// into a buffer sized from its Content-Length and capped on both ends. A
// small mux call costs the conn one write and one read per direction.
// Inside the record the plaintext stays JSON ({"query","count"} up,
// {"results","err"} back) — that is the client contract — but no end
// reflects to speak it: internal/core holds one hand-written codec for
// result lists, byte-identical to encoding/json on the way out and strict
// on the way in, and every list that leaves a process (sealed replies,
// the broker's local endpoint) goes through it.
//
// The transport conn is expendable by design: the secure channel's keys
// live in the broker and the enclave, never in the carrier, and a session
// id names its shard, so when an edge LB drops the conn mid-session the
// broker re-dials, re-seals the in-flight query as a fresh record, and
// continues — zero lost replies, zero re-attestations, and nothing for
// the gateway to be told. Remote refusals stay distinct from transport
// loss so session eviction still takes the full re-attestation path.
// Fleet.Stats reports conns held, total accepted and streams served; the
// repository benchmark's `edge` workload (bench/) measures a secure call
// over this edge.
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
// identity.
//
// Why park: the blocking engine stage holds one enclave thread (TCS) for
// the full engine round trip — the thread-occupancy cost the SGX
// switchless/async-call literature attacks. Parked, the enclave has
// submitted the fetch to a switchless-style ocall ring (a shared-memory
// submission/completion ring pair serviced by untrusted worker
// goroutines, paying no boundary transition) and RETURNED from the ecall,
// so obfuscation and filtering of request N+1 overlap the engine wait of
// request N. The completion re-enters through "resume", which does the
// breaker accounting and failover, or, for a response, settle and reply
// (the cache charged exactly once per flight); coalesced followers'
// replies ride the same "resume", each sealed on its own session. With few
// TCS and a realistic engine latency parking multiplies throughput several
// times over. A parked request has one fetch in flight at a time, as in
// Algorithm 1: one engine holds its k+1 query, and only a failed attempt
// fails over to the next upstream, each failure counted against its
// upstream exactly once.
// WithFetchTimeout is one absolute deadline over a whole fetch on both
// engine stages: an upstream that accepts the connection but never
// responds fails the fetch — and counts against its breaker — instead of
// pinning a TCS or an async worker.
//
// Why batch: even parked, every request pays two boundary crossings —
// "request" and "resume" — and with transitions priced (EENTER/EEXIT
// cost) that fixed tax bounds throughput regardless of TCS count.
// WithBatching adds group commit at the ecall seam: admitted requests
// queue in front of a single batcher goroutine that takes the first of
// them plus whatever else is already queued, up to BatchMax, into one
// "request-batch" ecall — one obfuscator pass drawing noise for the whole
// batch, one EPC settlement, one pending-table critical section, one ring
// submission burst — and the resume workers carry up to BatchMax ready
// completions per "resume", dividing the transition tax by the batch
// occupancy. Nothing is held for company: a lone request crosses at once,
// and under load the next batch fills while the previous one's ecall
// runs, so load, not a tuning knob, sets the occupancy. Under real load
// batching improves latency as well as throughput, because requests stop
// queueing behind other requests' transition spins. Each batch entry
// parks individually, so failover, coalescing and abandonment work
// unchanged. The repository benchmark's
// `pipeline` workload runs this configuration (async, batched, two TLS
// engines, 2 TCS).
//
// Proxy.Stats reports the node gauges (per-upstream pool reuse and
// breaker state in Stats.Upstreams — sorted by host for stable
// diffs — cache hit ratio, coalesce ratio, async counters, and
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
// planned drain the index migrates to the successor shard inside the
// same sealed blob as the history, and the enclave
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
// path stage — admit, obfuscate, probe, submit, fetch, resume, filter,
// reply — into fixed-bucket per-stage latency histograms,
// exported only as aggregates (per-request events never exist, so they
// cannot leak). A Prometheus text-format /metrics endpoint on the proxy
// admin mux exports the full Stats surface; the fleet gateway serves a
// merged view (counts summed, percentile tails from the worst shard,
// the same conservative rule as Fleet.Stats) with a per-shard ?shard=N
// selector, which /stats also honors. A structured event log
// ring-buffers JSON events for fleet lifecycle transitions — drains,
// kills, shard deaths, breaker transitions —
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
// # Examples
//
// Example is the quick start: an engine, a proxy with k = 3 and an
// attested client, one private search, and the OR query the engine saw.
// ExampleWithFakeQueries sweeps k over 0, 1, 3 and 5 and sets the filtered
// results beside the unprotected ones. Both are seeded and checked by go
// test against their Output blocks. examples/fleet (go run ./examples/fleet)
// drives a four-shard fleet through a shard kill and a sealed drain.
//
// The enclave, attestation service, sealing, onion-routing and PEAS
// baselines, the SimAttack re-identification attack, and the full
// experiment harness reproducing the paper's Figures 1 and 3-7 live under
// internal/; cmd/xsearch-bench regenerates those figures and the paper's
// own ablations.
package xsearch
