package experiments

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/peas"
	"xsearch/internal/proxy"
	"xsearch/internal/tor"
	"xsearch/internal/workload"
)

// Fig5Config sizes the throughput/latency experiment.
type Fig5Config struct {
	// Rates per system (requests/second sweep points).
	XSearchRates []float64
	PEASRates    []float64
	TorRates     []float64
	// Duration per rate point.
	Duration time.Duration
	// Workers bounds in-flight requests per system.
	Workers int
	// MaxP50 stops a sweep once median latency exceeds it.
	MaxP50 time.Duration
	// TorHopDelay shapes the simulated Tor network's inter-hop latency
	// and TorRelayCellRate its per-relay bandwidth (cells/second) —
	// calibrated to 2017-era public relays, whose per-circuit goodput,
	// not CPU, limited request rates.
	TorHopDelay      time.Duration
	TorRelayCellRate float64
	// UseHTTP drives each system over real loopback HTTP instead of the
	// in-process processing path — X-Search through an attested broker
	// over /handshake and /secure, as a real client. On bare metal this
	// matches the paper's wrk2 setup; in syscall-sandboxed environments
	// the kernel caps ALL systems at the same few-k req/s and hides the
	// differences, so the default measures the processing paths directly.
	UseHTTP bool
	// Seed fixes query selection.
	Seed uint64
}

// DefaultFig5Config is the full-size sweep.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		XSearchRates:     []float64{5000, 10000, 25000, 50000, 100000, 200000, 400000},
		PEASRates:        []float64{1000, 2000, 5000, 10000, 20000, 40000},
		TorRates:         []float64{25, 50, 100, 200, 400, 800},
		Duration:         2 * time.Second,
		Workers:          128,
		MaxP50:           time.Second,
		TorHopDelay:      10 * time.Millisecond,
		TorRelayCellRate: 400,
		Seed:             1,
	}
}

// Fig5Result carries the figure and per-system saturation summaries.
type Fig5Result struct {
	Figure *metrics.Figure
	// MaxSubSecondRate is the highest offered rate whose p50 stayed
	// under one second, per system — the paper's headline comparison
	// (X-Search 25k, PEAS ~1k, Tor ~100).
	MaxSubSecondRate map[string]float64
	Points           map[string][]workload.SweepPoint
}

// RunFig5 reproduces Figure 5: median latency against offered throughput
// for the X-Search proxy (echo mode, per §6.3 "without actually hitting
// the web search engine"), the PEAS chain, and Tor circuits.
func RunFig5(f *Fixture, cfg Fig5Config) (*Fig5Result, error) {
	if len(cfg.XSearchRates) == 0 {
		cfg = DefaultFig5Config()
	}
	queries := f.TrainPool
	if len(queries) == 0 {
		return nil, fmt.Errorf("fig5: empty query pool")
	}
	res := &Fig5Result{
		MaxSubSecondRate: make(map[string]float64),
		Points:           make(map[string][]workload.SweepPoint),
	}
	ctx := context.Background()
	baseCfg := workload.Config{Duration: cfg.Duration, Workers: cfg.Workers, Timeout: 30 * time.Second}

	// --- X-Search: enclave proxy in echo mode ---
	xsProxy, err := proxy.New(proxy.Config{K: 3, EchoMode: true, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := xsProxy.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = xsProxy.Shutdown(sctx)
	}()
	httpClient := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Workers * 2},
		Timeout:   30 * time.Second,
	}
	var qi atomic.Uint64
	nextQuery := func() string {
		return queries[int(qi.Add(1))%len(queries)]
	}
	var xsTarget workload.Target
	if cfg.UseHTTP {
		b, err := broker.New(broker.Config{
			ProxyURL:   xsProxy.URL(),
			ServiceKey: xsProxy.AttestationService().PublicKey(),
			Policy:     attestation.Policy{AcceptedMeasurements: []enclave.Measurement{xsProxy.Measurement()}},
			HTTPClient: httpClient,
		})
		if err != nil {
			return nil, err
		}
		if err := b.Connect(ctx); err != nil {
			return nil, fmt.Errorf("fig5 attest: %w", err)
		}
		xsTarget = func(ctx context.Context) error {
			_, err := b.Search(ctx, nextQuery())
			return err
		}
	} else {
		xsTarget = func(ctx context.Context) error {
			_, err := xsProxy.ServeQuery(ctx, nextQuery())
			return err
		}
	}
	xsPoints, err := workload.Sweep(ctx, cfg.XSearchRates, baseCfg, cfg.MaxP50, xsTarget)
	if err != nil {
		return nil, fmt.Errorf("fig5 xsearch sweep: %w", err)
	}
	res.Points["X-Search"] = xsPoints

	// --- PEAS: client crypto + receiver relay + issuer (echo) ---
	issuer, err := peas.NewIssuer("", true)
	if err != nil {
		return nil, err
	}
	if err := issuer.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = issuer.Shutdown(sctx)
	}()
	receiver, err := peas.NewReceiver(issuer.URL())
	if err != nil {
		return nil, err
	}
	if err := receiver.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = receiver.Shutdown(sctx)
	}()
	peasCfg := peas.ClientConfig{
		ReceiverURL: receiver.URL(),
		IssuerKey:   issuer.PublicKey(),
		Matrix:      f.CoMatrix,
		K:           3,
		Seed:        cfg.Seed,
		HTTPClient:  httpClient,
	}
	if !cfg.UseHTTP {
		// In-process: the receiver hop becomes a function call; the
		// issuer's RSA unwrap and the client's crypto still run in full.
		peasCfg.Transport = issuer.Process
	}
	peasClient, err := peas.NewClient(peasCfg)
	if err != nil {
		return nil, err
	}
	var pqi atomic.Uint64
	peasTarget := func(ctx context.Context) error {
		q := queries[int(pqi.Add(1))%len(queries)]
		_, err := peasClient.Search(ctx, q)
		return err
	}
	peasPoints, err := workload.Sweep(ctx, cfg.PEASRates, baseCfg, cfg.MaxP50, peasTarget)
	if err != nil {
		return nil, fmt.Errorf("fig5 peas sweep: %w", err)
	}
	res.Points["PEAS"] = peasPoints

	// --- Tor: 3-hop circuits, echo exit, bandwidth-limited relays ---
	network, err := tor.NewNetwork(tor.NetworkConfig{
		Relays:        5,
		HopMedian:     cfg.TorHopDelay,
		Scale:         1,
		Seed:          cfg.Seed,
		RelayCellRate: cfg.TorRelayCellRate,
	})
	if err != nil {
		return nil, err
	}
	defer network.Close()
	// One circuit per worker: a circuit carries one in-flight request.
	circuits := make(chan *tor.Circuit, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		c, err := network.BuildCircuit(3)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		circuits <- c
	}
	var tqi atomic.Uint64
	torTarget := func(ctx context.Context) error {
		q := queries[int(tqi.Add(1))%len(queries)]
		c := <-circuits
		defer func() { circuits <- c }()
		_, err := c.Fetch([]byte(q), 30*time.Second)
		return err
	}
	torPoints, err := workload.Sweep(ctx, cfg.TorRates, baseCfg, cfg.MaxP50, torTarget)
	if err != nil {
		return nil, fmt.Errorf("fig5 tor sweep: %w", err)
	}
	res.Points["Tor"] = torPoints

	// Assemble the figure: x = offered rate, y = p50 latency (ms).
	fig := metrics.NewFigure(
		"Figure 5: latency vs offered throughput (log-log in the paper)",
		"offered_req_per_s", "p50_latency_ms")
	for _, system := range []string{"Tor", "PEAS", "X-Search"} {
		series := fig.AddSeries(system)
		for _, p := range res.Points[system] {
			series.Add(p.Rate, float64(p.Result.Latency.P50)/float64(time.Millisecond))
			if p.Result.Latency.P50 < time.Second &&
				p.Rate > res.MaxSubSecondRate[system] {
				res.MaxSubSecondRate[system] = p.Rate
			}
		}
	}
	res.Figure = fig
	return res, nil
}
