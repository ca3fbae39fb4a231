package experiments

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/fleet"
	"xsearch/internal/metrics"
	"xsearch/internal/mux"
	"xsearch/internal/proxy"
	"xsearch/internal/securechannel"
)

// MuxConfig sizes the multiplexed-client-edge ablation. Three phases
// back the tentpole's three claims. Memory: an attested session held
// over its own dedicated HTTP connection costs the gateway a conn
// goroutine plus read/write buffers on both sides of the wire, while a
// session riding the shared mux conn costs only its channel state — so
// at equal memory the mux edge holds an order of magnitude more
// sessions. Latency: a secure query is one logical stream on the shared
// conn, and must price within a small factor of a dedicated HTTP
// request. Resume: killing the transport conn under live attested
// sessions mid-run must lose zero queries and trigger zero
// re-attestations — the channel keys live in the broker and the
// enclave, not in the carrier.
type MuxConfig struct {
	// Sessions is the memory phase's attested-session count per variant.
	Sessions int
	// Brokers concurrent attested clients drive Queries total secure
	// queries per latency variant and KillQueries across the conn kill.
	Brokers     int
	Queries     int
	KillQueries int
	// EngineService is the engine's per-request latency for the latency
	// and resume phases (the realistic floor both transports share).
	EngineService time.Duration
	// TCSPerShard bounds each shard enclave's concurrent ecalls.
	TCSPerShard int
	// DocsPerTopic sizes the engine corpus; Seed fixes randomness.
	DocsPerTopic int
	Seed         uint64
}

// DefaultMuxConfig is the full-size ablation.
func DefaultMuxConfig() MuxConfig {
	return MuxConfig{
		Sessions:      192,
		Brokers:       8,
		Queries:       480,
		KillQueries:   240,
		EngineService: 2 * time.Millisecond,
		TCSPerShard:   4,
		DocsPerTopic:  20,
		Seed:          1,
	}
}

// MuxResult carries the ablation's measurements.
type MuxResult struct {
	// Memory phase: marginal process bytes per attested session when each
	// session holds a dedicated HTTP conn vs when all of them share one
	// mux conn, and the resulting sessions-at-equal-memory ratio.
	DedicatedBytesPerSession int64
	SharedBytesPerSession    int64
	SessionsAtEqualMem       float64
	// ConnsHeld is how many transport conns the gateway held for the
	// shared variant's full session population (the point: one).
	ConnsHeld int64
	// Latency phase: secure-query latency over plain HTTP vs the mux
	// transport on the identical fleet, and mux p95 over HTTP p95.
	HTTPP50, HTTPP95 time.Duration
	MuxP50, MuxP95   time.Duration
	P95Ratio         float64
	HTTPRPS, MuxRPS  float64
	// Resume phase: queries driven across a mid-run transport-conn kill
	// on every broker; Lost must be zero, Reattestations must be zero.
	KillQueries    int
	Lost           int
	Reconnects     uint64
	Resumes        uint64
	Reattestations uint64
}

// RunMux measures the multiplexed client edge end to end.
func RunMux(cfg MuxConfig) (*MuxResult, error) {
	if cfg.Sessions <= 0 || cfg.Brokers <= 0 || cfg.Queries <= 0 || cfg.KillQueries <= 0 {
		return nil, fmt.Errorf("mux: need sessions, brokers, and queries")
	}
	res := &MuxResult{}
	if err := runMuxMemory(cfg, res); err != nil {
		return nil, fmt.Errorf("mux memory: %w", err)
	}
	if err := runMuxLatency(cfg, res); err != nil {
		return nil, fmt.Errorf("mux latency: %w", err)
	}
	if err := runMuxResume(cfg, res); err != nil {
		return nil, fmt.Errorf("mux resume: %w", err)
	}
	return res, nil
}

// callFunc abstracts the two carriers for the memory phase: one call of a
// mux stream kind, with the mux edge's bodies in and out.
type callFunc func(kind byte, body []byte) ([]byte, error)

// httpCall posts over the given client (each memory-phase session owns a
// client with its own Transport, so each session holds its own conn —
// the unmuxed edge's shape). The bodies are the mux edge's, unchanged.
func httpCall(client *http.Client, base string) callFunc {
	return func(kind byte, body []byte) ([]byte, error) {
		path, contentType := "/handshake", "application/json"
		if kind == mux.KindSecure {
			path, contentType = "/secure", "application/octet-stream"
		}
		resp, err := client.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
}

// muxCall issues the same calls as logical streams on a shared session.
func muxCall(s *mux.Session) callFunc {
	return func(kind byte, body []byte) ([]byte, error) {
		return s.Call(context.Background(), kind, body)
	}
}

// edgeSession is one attested session held by the memory phase.
type edgeSession struct {
	channel *securechannel.Channel
	session string
}

// openEdgeSession keys a secure channel over the carrier. It skips the
// broker's attestation verification — the memory phase measures footprint,
// not policy, and verification allocates nothing that persists per session.
func openEdgeSession(call callFunc) (*edgeSession, error) {
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		return nil, err
	}
	offerJSON, err := hs.Offer().Marshal()
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	reqBody, err := json.Marshal(map[string]any{
		"offer": json.RawMessage(offerJSON),
		"nonce": nonce,
	})
	if err != nil {
		return nil, err
	}
	raw, err := call(mux.KindHandshake, reqBody)
	if err != nil {
		return nil, err
	}
	var resp proxy.HandshakeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	serverOffer, err := securechannel.UnmarshalOffer(resp.Offer)
	if err != nil {
		return nil, err
	}
	channel, err := hs.Complete(serverOffer)
	if err != nil {
		return nil, err
	}
	return &edgeSession{channel: channel, session: resp.Session}, nil
}

// secureQuery proves a session live over its carrier.
func (e *edgeSession) secureQuery(call callFunc, query string) error {
	plaintext, err := json.Marshal(map[string]any{"query": query, "count": 5})
	if err != nil {
		return err
	}
	record, err := e.channel.Seal(plaintext)
	if err != nil {
		return err
	}
	reply, err := call(mux.KindSecure, proxy.AppendSecureBody(nil, e.session, record))
	if err != nil {
		return err
	}
	_, err = e.channel.Open(reply)
	return err
}

// memFootprint snapshots live heap plus goroutine stacks: the per-conn
// costs the mux edge removes are exactly a conn goroutine's stack and
// its heap-allocated read/write buffers, so HeapAlloc alone undercounts.
func memFootprint() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc + m.StackInuse)
}

// runMuxMemory holds cfg.Sessions attested sessions each way — one
// dedicated HTTP conn per session, then one shared mux conn for all —
// and compares the marginal bytes per session.
func runMuxMemory(cfg MuxConfig, res *MuxResult) error {
	g, err := fleet.New(fleet.Config{
		Shards: 1,
		ShardConfig: proxy.Config{
			K:        1,
			EchoMode: true,
			Seed:     cfg.Seed,
			// Headroom over both variants' populations: FIFO eviction
			// mid-measurement would free sessions and skew the marginal.
			MaxSessions: 2*cfg.Sessions + 16,
		},
	})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	if err := g.Start("127.0.0.1:0"); err != nil {
		return err
	}
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		return err
	}

	newDedicated := func() (*http.Client, callFunc) {
		// One Transport per session pins one keep-alive conn per session:
		// the unmuxed client edge's steady state.
		tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}
		client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
		return client, httpCall(client, g.URL())
	}

	// Warm both carriers end to end first so one-time costs (http
	// internals, first-hit handler paths, the mux accept path) stay out
	// of the marginals. The warm sessions stay alive through both
	// measurements.
	warmClient, warmCall := newDedicated()
	warmHTTP, err := openEdgeSession(warmCall)
	if err != nil {
		return err
	}
	if err := warmHTTP.secureQuery(warmCall, "mux mem warm http"); err != nil {
		return err
	}
	warmConn, err := net.Dial("tcp", g.MuxAddr())
	if err != nil {
		return err
	}
	warmSess := mux.Client(warmConn, mux.Config{})
	warmMux, err := openEdgeSession(muxCall(warmSess))
	if err != nil {
		return err
	}
	if err := warmMux.secureQuery(muxCall(warmSess), "mux mem warm mux"); err != nil {
		return err
	}

	// Variant A: each session over its own conn.
	clients := make([]*http.Client, 0, cfg.Sessions)
	sessions := make([]*edgeSession, 0, cfg.Sessions)
	before := memFootprint()
	for i := 0; i < cfg.Sessions; i++ {
		client, call := newDedicated()
		es, err := openEdgeSession(call)
		if err != nil {
			return fmt.Errorf("dedicated session %d: %w", i, err)
		}
		clients = append(clients, client)
		sessions = append(sessions, es)
	}
	res.DedicatedBytesPerSession = (memFootprint() - before) / int64(cfg.Sessions)
	// Release the dedicated conns (their gateway channel state stays in
	// the session table, present on both sides of variant B's delta).
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	clients, sessions = nil, sessions[:0]
	// Give the front's conn goroutines a beat to observe the closes, so
	// variant B's baseline doesn't still carry their stacks.
	time.Sleep(100 * time.Millisecond)

	// Variant B: every session a stream on one shared conn.
	before = memFootprint()
	call := muxCall(warmSess)
	for i := 0; i < cfg.Sessions; i++ {
		es, err := openEdgeSession(call)
		if err != nil {
			return fmt.Errorf("shared session %d: %w", i, err)
		}
		sessions = append(sessions, es)
	}
	res.SharedBytesPerSession = (memFootprint() - before) / int64(cfg.Sessions)
	res.ConnsHeld = g.Stats().MuxConns
	if res.SharedBytesPerSession < 1 {
		res.SharedBytesPerSession = 1
	}
	res.SessionsAtEqualMem = float64(res.DedicatedBytesPerSession) / float64(res.SharedBytesPerSession)
	runtime.KeepAlive(sessions)
	runtime.KeepAlive(warmClient)
	_ = warmSess.Close()
	return nil
}

// muxBenchFleet builds the attested fleet the latency and resume phases
// share: two shards, concurrency-bound enclaves, a slow loopback engine.
func muxBenchFleet(cfg MuxConfig, engineAddr string) (*fleet.Gateway, error) {
	g, err := fleet.New(fleet.Config{
		Shards: 2,
		ShardConfig: proxy.Config{
			K:             2,
			Engines:       []proxy.EngineSpec{{Host: engineAddr}},
			Seed:          cfg.Seed,
			EnclaveConfig: enclave.Config{TCSCount: cfg.TCSPerShard},
		},
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if err := g.StartMux("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return g, nil
}

// muxBrokers connects cfg.Brokers attested brokers on the transport.
func muxBrokers(cfg MuxConfig, g *fleet.Gateway, transport string) ([]*broker.Broker, error) {
	brokers := make([]*broker.Broker, 0, cfg.Brokers)
	for i := 0; i < cfg.Brokers; i++ {
		b, err := broker.New(broker.Config{
			ProxyURL:   g.URL(),
			ServiceKey: g.AttestationService().PublicKey(),
			Policy: attestation.Policy{
				AcceptedMeasurements: []enclave.Measurement{g.Measurement()},
			},
			Count:     5,
			Transport: transport,
			MuxAddr:   g.MuxAddr(),
		})
		if err != nil {
			return brokers, err
		}
		brokers = append(brokers, b)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = b.Connect(ctx)
		cancel()
		if err != nil {
			return brokers, fmt.Errorf("broker %d connect: %w", i, err)
		}
	}
	return brokers, nil
}

func closeBrokers(brokers []*broker.Broker) {
	for _, b := range brokers {
		_ = b.Close()
	}
}

// driveBrokers issues total distinct secure queries, one worker per
// broker (a broker is one client's daemon — its queries are sequential),
// from a shared index. onIndex observes each issue point; the resume
// phase uses it to kill conns at a known depth without polling.
func driveBrokers(brokers []*broker.Broker, total int, label string, hist *metrics.Histogram, onIndex func(int64)) (time.Duration, int) {
	var next, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, b := range brokers {
		wg.Add(1)
		go func(b *broker.Broker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				if onIndex != nil {
					onIndex(i)
				}
				q := fmt.Sprintf("%s query %d", label, i)
				t0 := time.Now()
				if _, err := b.Search(context.Background(), q); err != nil {
					errs.Add(1)
				} else if hist != nil {
					hist.Record(time.Since(t0))
				}
			}
		}(b)
	}
	wg.Wait()
	return time.Since(start), int(errs.Load())
}

// runMuxLatency drives the identical secure workload over plain HTTP and
// over the mux transport against one fleet.
func runMuxLatency(cfg MuxConfig, res *MuxResult) error {
	srv, err := slowEngine(FleetConfig{
		DocsPerTopic:  cfg.DocsPerTopic,
		Seed:          cfg.Seed,
		EngineService: cfg.EngineService,
	})
	if err != nil {
		return err
	}
	defer shutdownServer(srv)
	g, err := muxBenchFleet(cfg, srv.Addr())
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()

	for _, transport := range []string{"http", "mux"} {
		brokers, err := muxBrokers(cfg, g, transport)
		if err != nil {
			closeBrokers(brokers)
			return err
		}
		// Warm every broker's path (histories, pools) before measuring.
		if _, errs := driveBrokers(brokers, 2*cfg.Brokers, transport+" warm", nil, nil); errs > 0 {
			closeBrokers(brokers)
			return fmt.Errorf("%s warm-up: %d failures", transport, errs)
		}
		hist := metrics.NewHistogram()
		elapsed, errs := driveBrokers(brokers, cfg.Queries, transport, hist, nil)
		closeBrokers(brokers)
		if errs > 0 {
			return fmt.Errorf("%s run: %d failures", transport, errs)
		}
		snap := hist.Snapshot()
		rps := float64(cfg.Queries) / elapsed.Seconds()
		if transport == "http" {
			res.HTTPP50, res.HTTPP95, res.HTTPRPS = snap.P50, snap.P95, rps
		} else {
			res.MuxP50, res.MuxP95, res.MuxRPS = snap.P50, snap.P95, rps
		}
	}
	if res.HTTPP95 > 0 {
		res.P95Ratio = float64(res.MuxP95) / float64(res.HTTPP95)
	}
	return nil
}

// runMuxResume kills every broker's transport conn a third of the way
// into a secure run. The redialers must resume the attested sessions on
// fresh conns: zero lost queries, zero re-attestations.
func runMuxResume(cfg MuxConfig, res *MuxResult) error {
	srv, err := slowEngine(FleetConfig{
		DocsPerTopic:  cfg.DocsPerTopic,
		Seed:          cfg.Seed,
		EngineService: cfg.EngineService,
	})
	if err != nil {
		return err
	}
	defer shutdownServer(srv)
	g, err := muxBenchFleet(cfg, srv.Addr())
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	brokers, err := muxBrokers(cfg, g, "mux")
	if err != nil {
		closeBrokers(brokers)
		return err
	}
	defer closeBrokers(brokers)
	if _, errs := driveBrokers(brokers, 2*cfg.Brokers, "resume warm", nil, nil); errs > 0 {
		return fmt.Errorf("warm-up: %d failures", errs)
	}
	handshakesBefore := g.Stats().Handshakes

	killAt := int64(cfg.KillQueries / 3)
	var killOnce sync.Once
	onIndex := func(i int64) {
		if i >= killAt {
			killOnce.Do(func() {
				for _, b := range brokers {
					b.KillConn()
				}
			})
		}
	}
	_, errs := driveBrokers(brokers, cfg.KillQueries, "resume", nil, onIndex)
	res.KillQueries = cfg.KillQueries
	res.Lost = errs
	for _, b := range brokers {
		res.Reconnects += b.Reconnects()
	}
	st := g.Stats()
	res.Resumes = st.MuxResumes
	res.Reattestations = st.Handshakes - handshakesBefore
	return nil
}
