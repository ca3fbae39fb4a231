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
		shards      = flag.Int("shards", 1, "proxy-enclave shards behind a session-routing gateway (1=single node; the ring is fixed at start)")
		asyncOcalls = flag.Bool("async", false, "async ocall pipeline: switchless engine fetches, TCS released during the round trip")
		pipeDepth   = flag.Int("pipeline-depth", 0, "concurrently staged requests in the async pipeline (0=default 64)")
		fetchWait   = flag.Duration("fetch-timeout", 0, "deadline over one whole engine fetch, blocking or async: a hung upstream fails (and counts against its breaker) after this (0=off)")
		batchMax    = flag.Int("batch-max", 0, "coalesce up to this many admitted requests into one vectorized ecall (0=off, min 2; needs -async)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: drain in-flight requests this long before destroying enclaves")
		muxListen   = flag.String("mux-listen", "", "multiplexed client edge: raw-TCP listen address for brokers' sealed calls (xsearch-broker -transport mux -mux-addr; needs -shards)")
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
	if *pipeDepth != 0 && !*asyncOcalls {
		return fmt.Errorf("-pipeline-depth has no effect without -async")
	}
	if *asyncOcalls {
		opts = append(opts, xsearch.WithAsyncOcalls(*pipeDepth))
	}
	if *fetchWait > 0 {
		opts = append(opts, xsearch.WithFetchTimeout(*fetchWait))
	}
	if *batchMax != 0 {
		opts = append(opts, xsearch.WithBatching(*batchMax))
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
	if *muxListen != "" && *shards <= 1 {
		return fmt.Errorf("-mux-listen has no effect without -shards (the mux edge fronts the fleet gateway)")
	}
	if *shards > 1 {
		return runFleet(*shards, *muxListen, *addr, *k, *history, *drainWait, opts)
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
	fmt.Printf("clients             : xsearch-broker -proxy %s -measurement %x -attkey %x\n",
		proxy.URL(), m[:], proxy.AttestationKey())

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
		fmt.Printf("pipeline: %d async fetches (%d completed)\n", st.AsyncSubmitted, st.AsyncCompleted)
	}
	if st.BatchesSubmitted > 0 {
		fmt.Printf("batching: %d vectorized ecalls, request-batch occupancy p50=%.0f p95=%.0f\n",
			st.BatchesSubmitted, st.BatchOccupancyP50, st.BatchOccupancyP95)
	}
	for _, u := range st.Upstreams {
		fmt.Printf("upstream %s (w=%d): served %d, failures %d, cooling=%t, reuse %.0f%%\n",
			u.Host, u.Weight, u.Served, u.Failures, u.CoolingDown, u.PoolReuseRatio*100)
	}
	return nil
}

// runFleet serves shards proxy nodes behind the session-routing gateway:
// the same HTTP surface as a single node, with every proxy option applied
// to each shard, and the mux edge on muxAddr when it is set.
func runFleet(shards int, muxAddr, addr string, k, history int, drainWait time.Duration, opts []xsearch.ProxyOption) error {
	f, err := xsearch.NewFleet(xsearch.WithShardCount(shards), xsearch.WithShardConfig(opts...))
	if err != nil {
		return err
	}
	if err := f.Start(addr); err != nil {
		return err
	}
	if muxAddr != "" {
		if err := f.StartMux(muxAddr); err != nil {
			return err
		}
	}
	m := f.Measurement()
	fmt.Printf("x-search fleet gateway listening on %s (%d shards, k=%d, history=%d per shard)\n",
		f.Addr(), shards, k, history)
	fmt.Printf("enclave measurement : %s (all shards)\n", hex.EncodeToString(m[:]))
	fmt.Printf("attestation key     : %s\n", hex.EncodeToString(f.AttestationKey()))
	fmt.Printf("clients             : xsearch-broker -proxy %s -measurement %x -attkey %x\n",
		f.URL(), m[:], f.AttestationKey())
	if muxAddr != "" {
		fmt.Printf("mux edge            : tcp %s (sealed calls only)\n", f.MuxAddr())
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
	fmt.Printf("gateway: %d secure, %d handshakes, %d sessions lost, %d drains\n",
		st.SecureRouted, st.Handshakes, st.SessionsLost, st.Drains)
	if st.MuxConnsTotal > 0 {
		fmt.Printf("mux edge: %d conns total, %d streams, %d sessions resumed without re-attestation\n",
			st.MuxConnsTotal, st.MuxStreams, st.MuxResumes)
	}
	if st.Total.AsyncSubmitted > 0 {
		fmt.Printf("pipeline: %d async fetches; worst shard p99 %v\n", st.Total.AsyncSubmitted, st.Total.LatencyP99)
	}
	for _, ss := range st.Shards {
		fmt.Printf("shard %d: alive=%t sessions=%d requests=%d history=%d/%dB heap=%dB\n",
			ss.Index, ss.Alive, ss.Sessions, ss.Proxy.Requests,
			ss.Proxy.HistoryLen, ss.Proxy.HistoryB, ss.Proxy.Enclave.HeapBytes)
	}
	for _, u := range st.Total.Upstreams {
		fmt.Printf("upstream %s: served %d, failures %d (fleet-wide)\n",
			u.Host, u.Served, u.Failures)
	}
	return nil
}
