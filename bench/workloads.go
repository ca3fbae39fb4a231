package main

import (
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/fleet"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
)

// k is the number of fake queries per original on every workload (the
// paper's default).
const k = 3

// ttl keeps cache and index entries alive for a whole run: the defaults
// (60 s, 120 s) would expire warm-up entries in the middle of a full run.
const ttl = 10 * time.Minute

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name string
	why  string
	// callers is the closed-loop client count: one broker, one goroutine,
	// sequential queries each.
	callers int
	// count is the result-list length brokers ask for.
	count int
	// distinct is how many distinct queries the stream holds; zipf draws
	// the stream from that pool with Zipf(s=1.1) after one full pass.
	distinct int
	zipf     bool
	// wrapOK says the stream may repeat once exhausted because nothing on
	// the path is keyed on the query.
	wrapOK bool
	// wantResults: replies must be non-empty (false under EchoMode).
	wantResults bool
	// engineDelay and engineTLS shape the engine substrate; engines is
	// the number of engine servers.
	engines     int
	engineTLS   bool
	engineDelay time.Duration
	// shards > 0 runs a fleet gateway with a raw-TCP mux edge.
	shards int
	// latPerSec sizes the preallocated per-caller latency buffer.
	latPerSec int
	// traceScale multiplies the traced pass's per-rung sample.
	traceScale int
	// proxyConfig returns the node configuration minus engines and seed.
	proxyConfig func(sz sizes) proxy.Config
}

// workloads lists the four workloads; names are final.
var workloads = []*workload{
	{
		name:    "paper",
		why:     "Paper-faithful Fig. 7 path, distinct queries, 20-result lists: fetch and core.filter do the work; cache, index, mux, batcher and TLS are bypassed.",
		callers: 2, count: 20, distinct: 1 << 15, wantResults: true, engines: 1, latPerSec: 4000, traceScale: 1,
		proxyConfig: func(sz sizes) proxy.Config {
			return proxy.Config{K: k, HistoryCapacity: sz.history, ResultsPerList: 20}
		},
	},
	{
		name:    "repeat",
		why:     "Zipf(1.1) over a 2000-query pool with cache and answer index warm: answered inside the enclave, so the per-request seam (JSON, HTTP edge, seal/open) shows; fetch and filter idle.",
		callers: 2, count: 20, distinct: 2000, zipf: true, wantResults: true, engines: 1, latPerSec: 40000, traceScale: 10,
		proxyConfig: func(sz sizes) proxy.Config {
			return proxy.Config{K: k, HistoryCapacity: sz.history, ResultsPerList: 20,
				CacheBytes: 8 << 20, CacheTTL: ttl, IndexBytes: 8 << 20, IndexTTL: ttl}
		},
	},
	{
		name:    "pipeline",
		why:     "Async batched pipeline, 2 TCS at 3us transitions, two TLS engines with 2 ms delay, 4 callers, 5-result lists, distinct queries: TCS release, batcher, tls_step flights and cache writes are on the path.",
		callers: 4, count: 5, distinct: 1 << 16, wantResults: true, engines: 2, engineTLS: true,
		engineDelay: 2 * time.Millisecond, latPerSec: 4000, traceScale: 1,
		proxyConfig: func(sz sizes) proxy.Config {
			return proxy.Config{K: k, HistoryCapacity: sz.history, ResultsPerList: 5,
				AsyncOcalls: true, PipelineDepth: 64, BatchMax: 8,
				EnclaveConfig: enclave.Config{TCSCount: 2, TransitionCost: 3 * time.Microsecond},
				FetchTimeout:  2 * time.Second, CacheBytes: 1 << 20, CacheTTL: ttl, Observability: true}
		},
	},
	{
		name:    "edge",
		why:     "Two-shard fleet in EchoMode behind the raw-TCP mux edge, distinct queries: smallest payload and no engine work, so cost is mux frames, JSON, ecall seam, gateway route, seal/open, obfuscate.",
		callers: 2, count: 20, distinct: 1 << 17, wrapOK: true, engines: 1, shards: 2, latPerSec: 100000, traceScale: 10,
		proxyConfig: func(sz sizes) proxy.Config {
			return proxy.Config{K: k, HistoryCapacity: sz.history, EchoMode: true}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stack is one built system under test: engine substrate, proxy or fleet,
// attested brokers, and the workload's query stream.
type stack struct {
	w       *workload
	engine  *searchengine.Engine
	servers []*searchengine.Server
	rootPEM [][]byte // per server; nil entries for plain TCP
	shards  []*proxy.Proxy
	gateway *fleet.Gateway // nil on single-proxy workloads
	url     string
	muxAddr string
	policy  attestation.Policy
	svcKey  ed25519.PublicKey
	brokers []*broker.Broker
	release []func() // closes the callers' brokers and the harness's clients
	stream  []string
	pool    []string // distinct queries the stream draws from
}

// buildStack builds everything a workload needs from the seed. Its wall
// time is the set-up metric.
func buildStack(w *workload, seed uint64, sz sizes) (*stack, error) {
	s := &stack{w: w}
	ok := false
	defer func() {
		if !ok {
			s.teardown()
		}
	}()
	var err error
	if s.pool, s.stream, err = buildStream(w, seed, sz); err != nil {
		return nil, err
	}
	s.engine = searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 40, Seed: seed})))
	var specs []proxy.EngineSpec
	for i := 0; i < w.engines; i++ {
		srv := searchengine.NewServer(s.engine)
		srv.Delay = w.engineDelay
		var pem []byte
		if w.engineTLS {
			cert, certPEM, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
			if err != nil {
				return nil, err
			}
			if err := srv.StartTLS("127.0.0.1:0", cert); err != nil {
				return nil, err
			}
			pem = certPEM
		} else if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.rootPEM = append(s.rootPEM, pem)
		specs = append(specs, proxy.EngineSpec{Host: srv.Addr(), RootsPEM: pem})
	}
	cfg := w.proxyConfig(sz)
	cfg.Seed = seed
	if !cfg.EchoMode {
		cfg.Engines = specs
	}
	var service *attestation.Service
	var meas enclave.Measurement
	if w.shards > 0 {
		g, err := fleet.New(fleet.Config{Shards: w.shards, ShardConfig: cfg})
		if err != nil {
			return nil, err
		}
		s.gateway = g
		if err := g.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		if err := g.StartMux("127.0.0.1:0"); err != nil {
			return nil, err
		}
		for i := 0; i < g.ShardCount(); i++ {
			p, err := g.Shard(i)
			if err != nil {
				return nil, err
			}
			s.shards = append(s.shards, p)
		}
		s.url, s.muxAddr = g.URL(), g.MuxAddr()
		service, meas = g.AttestationService(), g.Measurement()
	} else {
		p, err := proxy.New(cfg)
		if err != nil {
			return nil, err
		}
		s.shards = []*proxy.Proxy{p}
		if err := p.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.url = p.URL()
		service, meas = p.AttestationService(), p.Measurement()
	}
	s.svcKey = service.PublicKey()
	s.policy = attestation.Policy{AcceptedMeasurements: []enclave.Measurement{meas}}
	if err := s.connectCallers(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// newBroker returns an unconnected broker with its own HTTP transport: a
// broker is one client daemon and holds its own connection. release closes
// what the broker holds open.
func (s *stack) newBroker() (b *broker.Broker, release func(), err error) {
	client := &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2}}
	cfg := broker.Config{ProxyURL: s.url, ServiceKey: s.svcKey, Policy: s.policy,
		HTTPClient: client, Count: s.w.count}
	if s.muxAddr != "" {
		cfg.Transport, cfg.MuxAddr = "mux", s.muxAddr
	}
	if b, err = broker.New(cfg); err != nil {
		return nil, nil, err
	}
	return b, func() { _ = b.Close(); client.CloseIdleConnections() }, nil
}

// connectCallers attests one broker per caller. On a fleet the gateway
// pins a session to the shard its random offer hashes to, so brokers are
// re-drawn until every shard serves the same number of callers: which
// shards carry traffic must not differ between runs.
func (s *stack) connectCallers() error {
	perShard := make([]int, len(s.shards))
	want := (s.w.callers + len(s.shards) - 1) / len(s.shards)
	for tries := 0; len(s.brokers) < s.w.callers; tries++ {
		if tries > 64*s.w.callers {
			return fmt.Errorf("%s: could not spread %d brokers over %d shards", s.w.name, s.w.callers, len(s.shards))
		}
		b, release, err := s.newBroker()
		if err != nil {
			return err
		}
		before := s.sessionsPerShard()
		if err := connect(b); err != nil {
			release()
			return err
		}
		shard := 0
		for i, n := range s.sessionsPerShard() {
			if n > before[i] {
				shard = i
			}
		}
		if perShard[shard] >= want {
			release()
			continue
		}
		perShard[shard]++
		s.brokers = append(s.brokers, b)
		s.release = append(s.release, release)
	}
	return nil
}

func (s *stack) sessionsPerShard() []int {
	out := make([]int, len(s.shards))
	if s.gateway == nil {
		return out
	}
	for _, sh := range s.gateway.Stats().Shards {
		if sh.Index < len(out) {
			out[sh.Index] = sh.Sessions
		}
	}
	return out
}

func connect(b *broker.Broker) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return b.Connect(ctx)
}

// engineClient returns a direct client of the first engine server, the
// harness's stand-in for the proxy's fetch.
func (s *stack) engineClient() *searchengine.Client {
	if pem := s.rootPEM[0]; pem != nil {
		roots := x509.NewCertPool()
		roots.AppendCertsFromPEM(pem)
		hc := &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: roots}}}
		s.release = append(s.release, hc.CloseIdleConnections)
		return &searchengine.Client{BaseURL: "https://" + s.servers[0].Addr(), HTTP: hc}
	}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	s.release = append(s.release, hc.CloseIdleConnections)
	return &searchengine.Client{BaseURL: s.servers[0].URL(), HTTP: hc}
}

// stats returns one snapshot per shard.
func (s *stack) stats() []proxy.Stats {
	out := make([]proxy.Stats, len(s.shards))
	for i, p := range s.shards {
		out[i] = p.Stats()
	}
	return out
}

// teardown stops everything buildStack started and waits for it.
func (s *stack) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, release := range s.release {
		release()
	}
	if s.gateway != nil {
		_ = s.gateway.Shutdown(ctx)
	} else {
		for _, p := range s.shards {
			_ = p.Shutdown(ctx)
		}
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
}
