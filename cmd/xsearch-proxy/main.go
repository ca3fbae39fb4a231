// Command xsearch-proxy runs an X-Search node: the enclave-hosted privacy
// proxy that obfuscates queries with k real past queries and filters the
// engine's results. On startup it prints the enclave measurement and the
// attestation key a broker needs to pin.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xsearch"
)

// engineList collects repeated -engine flags: each occurrence is one
// upstream, as "host:port" or "host:port*weight" (weight defaults to 1).
type engineList []xsearch.EngineSpec

func (e *engineList) String() string {
	parts := make([]string, len(*e))
	for i, s := range *e {
		parts[i] = fmt.Sprintf("%s*%d", s.Host, s.Weight)
	}
	return strings.Join(parts, ",")
}

func (e *engineList) Set(v string) error {
	spec := xsearch.EngineSpec{Host: v, Weight: 1}
	if host, w, ok := strings.Cut(v, "*"); ok {
		weight, err := strconv.Atoi(w)
		if err != nil || weight <= 0 {
			return fmt.Errorf("bad engine weight %q (want host:port*N)", w)
		}
		spec.Host, spec.Weight = host, weight
	}
	*e = append(*e, spec)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xsearch-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	var engines engineList
	flag.Var(&engines, "engine",
		"search engine host:port, or host:port*weight; repeat for multi-engine fan-out (default 127.0.0.1:8090)")
	var (
		addr        = flag.String("addr", "127.0.0.1:8091", "listen address")
		k           = flag.Int("k", 3, "number of fake queries per request")
		history     = flag.Int("history", 1_000_000, "past-query window capacity")
		perList     = flag.Int("results", 20, "results per sub-query list")
		echo        = flag.Bool("echo", false, "echo mode: skip the engine (capacity tests)")
		pool        = flag.Int("pool", 0, "idle engine connections kept alive in the enclave, per upstream (0=default 8, negative=off)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "in-enclave result cache bound in bytes (0=off; charged to the EPC)")
		cacheTTL    = flag.Duration("cache-ttl", 0, "result cache entry lifetime (0=default 60s)")
		indexBytes  = flag.Int64("index-bytes", 0, "in-enclave answer-tier index bound in bytes (0=off; charged to the EPC)")
		indexTTL    = flag.Duration("index-ttl", 0, "answer-tier indexed document lifetime (0=default 120s)")
		indexScore  = flag.Float64("index-min-score", 0, "answer-tier confidence floor: min TF-IDF score to serve locally (0=default)")
		breakFails  = flag.Int("breaker-failures", 0, "consecutive failures that open an upstream's circuit breaker (0=default 3)")
		breakerCool = flag.Duration("breaker-cooldown", 0, "how long an open breaker excludes its upstream (0=default 1s)")
		noCoalesce  = flag.Bool("no-coalesce", false, "disable single-flight coalescing of concurrent identical queries")
		shards      = flag.Int("shards", 1, "proxy-enclave shards behind a session-routing gateway (1=single node; the initial size when autoscaling)")
		shardsMin   = flag.Int("shards-min", 0, "autoscaler floor: never retire below this many shards (needs -shards-max)")
		shardsMax   = flag.Int("shards-max", 0, "autoscaler ceiling: enables gateway shard autoscaling between -shards-min and this")
		scaleEvery  = flag.Duration("scale-interval", 0, "autoscaler load-sampling period (0=default 250ms; needs -shards-max)")
		upstreamRPS = flag.Float64("upstream-rps", 0, "per-upstream token-bucket rate limit in req/s (0=unlimited)")
		upstreamBst = flag.Int("upstream-burst", 0, "per-upstream token-bucket burst depth (0=ceil(rps))")
		asyncOcalls = flag.Bool("async", false, "async ocall pipeline: switchless engine fetches, TCS released during the round trip")
		pipeDepth   = flag.Int("pipeline-depth", 0, "concurrently staged requests in the async pipeline (0=default 64)")
		hedgeDelay  = flag.Duration("hedge-delay", 0, "hedge a pipelined fetch after this delay (0=p95-derived; needs -hedge-max)")
		hedgeMax    = flag.Int("hedge-max", 0, "max hedge fetches per request (0=hedging off; needs -async)")
		fetchWait   = flag.Duration("fetch-timeout", 0, "deadline over one whole engine fetch, blocking or async: a hung upstream fails (and counts against its breaker) after this (0=off)")
		batchMax    = flag.Int("batch-max", 0, "coalesce up to this many admitted requests into one vectorized ecall (0=off, min 2; needs -async)")
		batchWindow = flag.Duration("batch-window", 0, "how long a partially filled batch waits for more requests (0=default 200µs; needs -batch-max)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: drain in-flight requests this long before destroying enclaves")
		muxListen   = flag.String("mux-listen", "", "multiplexed client edge: raw-TCP framed-transport listen address (WebSocket clients use the HTTP front's /mux; needs -shards or -shards-max)")
		obsOn       = flag.Bool("obs", false, "observability: per-stage latency histograms, Prometheus /metrics, /events ring, pprof (content-free telemetry)")
		eventsCap   = flag.Int("events", 0, "structured event ring capacity (0=default 1024; implies event logging)")
		logJSON     = flag.Bool("log-json", false, "mirror every structured event to stderr as one JSON object per line")
	)
	flag.Parse()

	opts := []xsearch.ProxyOption{
		xsearch.WithFakeQueries(*k),
		xsearch.WithHistoryCapacity(*history),
		xsearch.WithResultsPerList(*perList),
		xsearch.WithEnginePool(*pool),
		xsearch.WithUpstreamBreaker(*breakFails, *breakerCool),
	}
	if *cacheTTL != 0 && *cacheBytes == 0 {
		return fmt.Errorf("-cache-ttl has no effect without -cache-bytes")
	}
	if *cacheBytes != 0 {
		opts = append(opts, xsearch.WithResultCache(*cacheBytes, *cacheTTL))
	}
	if (*indexTTL != 0 || *indexScore != 0) && *indexBytes == 0 {
		return fmt.Errorf("-index-ttl/-index-min-score have no effect without -index-bytes")
	}
	if *indexBytes != 0 {
		opts = append(opts, xsearch.WithLocalIndex(*indexBytes, *indexTTL, *indexScore))
	}
	if *noCoalesce {
		opts = append(opts, xsearch.WithoutCoalescing())
	}
	if *upstreamRPS > 0 {
		opts = append(opts, xsearch.WithUpstreamRateLimit(*upstreamRPS, *upstreamBst))
	}
	if *hedgeMax > 0 && !*asyncOcalls {
		return fmt.Errorf("-hedge-max requires -async")
	}
	if *hedgeDelay != 0 && *hedgeMax <= 0 {
		return fmt.Errorf("-hedge-delay has no effect without -hedge-max")
	}
	if *pipeDepth != 0 && !*asyncOcalls {
		return fmt.Errorf("-pipeline-depth has no effect without -async")
	}
	if *asyncOcalls {
		opts = append(opts, xsearch.WithAsyncOcalls(*pipeDepth))
	}
	if *hedgeMax > 0 {
		opts = append(opts, xsearch.WithHedging(*hedgeDelay, *hedgeMax))
	}
	if *fetchWait > 0 {
		opts = append(opts, xsearch.WithFetchTimeout(*fetchWait))
	}
	if *batchMax != 0 && !*asyncOcalls {
		return fmt.Errorf("-batch-max requires -async")
	}
	if *batchWindow != 0 && *batchMax == 0 {
		return fmt.Errorf("-batch-window has no effect without -batch-max")
	}
	if *batchMax != 0 {
		opts = append(opts, xsearch.WithBatching(*batchMax, *batchWindow))
	}
	if *obsOn {
		opts = append(opts, xsearch.WithObservability())
	}
	if *eventsCap < 0 {
		return fmt.Errorf("-events must be non-negative")
	}
	if *eventsCap > 0 || *logJSON {
		var stream io.Writer
		if *logJSON {
			stream = os.Stderr
		}
		opts = append(opts, xsearch.WithEventLog(*eventsCap, stream))
	}
	switch {
	case *echo:
		if len(engines) > 0 {
			return fmt.Errorf("-echo and -engine are mutually exclusive")
		}
		opts = append(opts, xsearch.WithEchoMode())
	case len(engines) == 0:
		opts = append(opts, xsearch.WithEngines(xsearch.EngineSpec{Host: "127.0.0.1:8090"}))
	default:
		opts = append(opts, xsearch.WithEngines(engines...))
	}
	if (*shardsMin != 0 || *scaleEvery != 0) && *shardsMax == 0 {
		return fmt.Errorf("-shards-min/-scale-interval have no effect without -shards-max")
	}
	if *muxListen != "" && *shards <= 1 && *shardsMax == 0 {
		return fmt.Errorf("-mux-listen has no effect without -shards or -shards-max (the mux edge fronts the fleet gateway)")
	}
	if *shardsMax > 0 {
		min := *shardsMin
		if min < 1 {
			min = 1
		}
		if *shardsMax < min {
			return fmt.Errorf("-shards-max %d below -shards-min %d", *shardsMax, min)
		}
		return runFleet(fleetSpec{
			shards:    *shards,
			min:       min,
			max:       *shardsMax,
			interval:  *scaleEvery,
			autoscale: true,
			muxAddr:   *muxListen,
		}, *addr, *k, *history, *drainWait, opts)
	}
	if *shards > 1 {
		return runFleet(fleetSpec{shards: *shards, muxAddr: *muxListen}, *addr, *k, *history, *drainWait, opts)
	}
	proxy, err := xsearch.NewProxy(opts...)
	if err != nil {
		return err
	}
	if err := proxy.Start(*addr); err != nil {
		return err
	}
	m := proxy.Measurement()
	fmt.Printf("x-search proxy listening on %s (k=%d, history=%d, echo=%t)\n",
		proxy.Addr(), *k, *history, *echo)
	if len(engines) > 0 {
		fmt.Printf("engine upstreams    : %s\n", engines.String())
	}
	fmt.Printf("enclave measurement : %s\n", hex.EncodeToString(m[:]))
	fmt.Printf("attestation key     : %s\n", hex.EncodeToString(proxy.AttestationKey()))
	fmt.Printf("plain front         : curl '%s/search?q=chicken+recipe'\n", proxy.URL())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-proxy.ServeErr():
		// The HTTP front's accept loop died — previously this was silently
		// discarded and the daemon served nothing while appearing healthy.
		fmt.Printf("fatal: proxy front failed: %v\n", err)
	}
	// Graceful teardown: stop accepting, drain in-flight (pipelined)
	// requests under a deadline, persist sealed state, then destroy the
	// enclave — an abrupt exit would drop secured sessions mid-response.
	fmt.Printf("shutting down (draining up to %v)\n", *drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := proxy.Shutdown(ctx); err != nil {
		fmt.Printf("shutdown: %v\n", err)
	}
	st := proxy.Stats()
	fmt.Printf("served %d requests, %d handshakes, %d errors; history %d queries / %d bytes\n",
		st.Requests, st.Handshakes, st.Errors, st.HistoryLen, st.HistoryB)
	fmt.Printf("pool: %.0f%% reuse (%d reused, %d dialled); cache: %.0f%% hits (%d hits, %d misses, %d bytes); coalesced: %.0f%% (%d shared, %d led)\n",
		st.PoolReuseRatio*100, st.PoolReuses, st.PoolDials,
		st.CacheHitRatio*100, st.CacheHits, st.CacheMisses, st.CacheB,
		st.CoalesceRatio*100, st.CoalesceShared, st.CoalesceLed)
	if st.IndexHits+st.IndexMisses > 0 || st.IndexDocs > 0 {
		fmt.Printf("answer tier: %.0f%% index hits (%d hits, %d misses), %d docs / %d bytes; local-hit ratio %.0f%%\n",
			st.IndexHitRatio*100, st.IndexHits, st.IndexMisses, st.IndexDocs, st.IndexB,
			st.LocalHitRatio*100)
	}
	if st.LatencyCount > 0 {
		fmt.Printf("latency: p50=%v p95=%v p99=%v (%d samples)\n",
			st.LatencyP50, st.LatencyP95, st.LatencyP99, st.LatencyCount)
	}
	if st.AsyncSubmitted > 0 {
		fmt.Printf("pipeline: %d async fetches (%d completed); hedges: %d issued, %d won, %d cancelled\n",
			st.AsyncSubmitted, st.AsyncCompleted, st.HedgeAttempts, st.HedgeWins, st.HedgeCancelled)
	}
	if st.BatchesSubmitted > 0 {
		fmt.Printf("batching: %d vectorized ecalls, request-batch occupancy p50=%.0f p95=%.0f\n",
			st.BatchesSubmitted, st.BatchOccupancyP50, st.BatchOccupancyP95)
	}
	for _, u := range st.Upstreams {
		fmt.Printf("upstream %s (w=%d): served %d, failures %d, rate-limited %d, cooling=%t, reuse %.0f%%\n",
			u.Host, u.Weight, u.Served, u.Failures, u.RateLimited, u.CoolingDown, u.PoolReuseRatio*100)
	}
	return nil
}

// fleetSpec is the gateway sizing parsed from the -shards* flags.
type fleetSpec struct {
	shards    int
	min, max  int
	interval  time.Duration
	autoscale bool
	muxAddr   string
}

// runFleet serves a sharded fleet behind the session-routing gateway: the
// same HTTP surface as a single node, with every proxy option applied to
// each shard, optionally autoscaling between spec.min and spec.max.
func runFleet(spec fleetSpec, addr string, k, history int, drainWait time.Duration, opts []xsearch.ProxyOption) error {
	fopts := []xsearch.FleetOption{
		xsearch.WithShardCount(spec.shards),
		xsearch.WithShardConfig(opts...),
	}
	if spec.autoscale {
		fopts = append(fopts, xsearch.WithAutoscale(spec.min, spec.max,
			xsearch.AutoscalePolicy{Interval: spec.interval}))
	}
	f, err := xsearch.NewFleet(fopts...)
	if err != nil {
		return err
	}
	if err := f.Start(addr); err != nil {
		return err
	}
	if spec.muxAddr != "" {
		if err := f.StartMux(spec.muxAddr); err != nil {
			return err
		}
	}
	m := f.Measurement()
	if spec.autoscale {
		fmt.Printf("x-search fleet gateway listening on %s (%d shards, autoscaling %d..%d, k=%d, history=%d per shard)\n",
			f.Addr(), f.ShardCount(), spec.min, spec.max, k, history)
	} else {
		fmt.Printf("x-search fleet gateway listening on %s (%d shards, k=%d, history=%d per shard)\n",
			f.Addr(), spec.shards, k, history)
	}
	fmt.Printf("enclave measurement : %s (all shards)\n", hex.EncodeToString(m[:]))
	fmt.Printf("attestation key     : %s\n", hex.EncodeToString(f.AttestationKey()))
	fmt.Printf("plain front         : curl '%s/search?q=chicken+recipe'\n", f.URL())
	if spec.muxAddr != "" {
		fmt.Printf("mux edge            : tcp %s (WebSocket at %s/mux)\n", f.MuxAddr(), f.URL())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-f.ServeErr():
		// The HTTP front's accept loop died out from under the fleet —
		// previously this was silently discarded and the daemon served
		// nothing while appearing healthy.
		fmt.Printf("fatal: gateway front failed: %v\n", err)
	}
	// Graceful teardown across the fleet: every shard stops accepting,
	// drains its pipeline under the shared deadline, then its enclave is
	// destroyed.
	fmt.Printf("shutting down (draining up to %v)\n", drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		fmt.Printf("shutdown: %v\n", err)
	}
	st := f.Stats()
	fmt.Printf("gateway: %d plain, %d secure, %d handshakes, %d failovers, %d sessions lost, %d drains\n",
		st.PlainRouted, st.SecureRouted, st.Handshakes, st.Failovers, st.SessionsLost, st.Drains)
	if st.MuxConnsTotal > 0 {
		fmt.Printf("mux edge: %d conns total, %d streams, %d sessions resumed without re-attestation\n",
			st.MuxConnsTotal, st.MuxStreams, st.MuxResumes)
	}
	if st.ScaleUps+st.ScaleDowns > 0 || spec.autoscale {
		fmt.Printf("autoscale: %d shards now, %d scale-ups, %d scale-downs; last decision: %s\n",
			st.CurrentShards, st.ScaleUps, st.ScaleDowns, st.LastScaleDecision)
	}
	if st.AsyncSubmitted > 0 {
		fmt.Printf("pipeline: %d async fetches; hedges: %d issued, %d won, %d cancelled; worst shard p99 %v\n",
			st.AsyncSubmitted, st.HedgeAttempts, st.HedgeWins, st.HedgeCancelled, st.LatencyP99Max)
	}
	for _, ss := range st.Shards {
		fmt.Printf("shard %d: alive=%t sessions=%d requests=%d history=%d/%dB heap=%dB\n",
			ss.Index, ss.Alive, ss.Sessions, ss.Proxy.Requests,
			ss.Proxy.HistoryLen, ss.Proxy.HistoryB, ss.Proxy.Enclave.HeapBytes)
	}
	for _, u := range st.Upstreams {
		fmt.Printf("upstream %s: served %d, failures %d, rate-limited %d (fleet-wide)\n",
			u.Host, u.Served, u.Failures, u.RateLimited)
	}
	return nil
}
