package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/netsim"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
	"xsearch/internal/tor"
)

// Fig7Config sizes the end-to-end round-trip experiment.
type Fig7Config struct {
	// Queries is the number of round trips per system (paper: 100,
	// bounded by Bing rate limits).
	Queries int
	// K is X-Search's obfuscation level (paper: 3).
	K int
	// EngineMedian is the engine's server-side processing time median.
	EngineMedian time.Duration
	// Scale compresses all WAN and engine delays (1.0 = real time).
	Scale float64
	// Circuits is the Tor circuit pool size.
	Circuits int
	// Points is the CDF sampling resolution.
	Points int
	// Seed fixes everything.
	Seed uint64
}

// DefaultFig7Config mirrors the paper's experiment (May 2017 conditions).
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Queries:      100,
		K:            3,
		EngineMedian: 150 * time.Millisecond,
		Scale:        1,
		Circuits:     4,
		Points:       40,
		Seed:         1,
	}
}

// Fig7Result carries the figure and the headline latencies.
type Fig7Result struct {
	Figure *metrics.Figure
	// Median and P99 per system, in (unscaled) seconds.
	Median map[string]float64
	P99    map[string]float64
}

// RunFig7 reproduces Figure 7: the CDF of user-perceived web-search
// round-trip time for (1) Direct engine access, (2) X-Search with k=3
// through the attested broker/proxy chain, and (3) Tor. All three hit the
// same simulated engine over the same WAN model.
func RunFig7(f *Fixture, cfg Fig7Config) (*Fig7Result, error) {
	if cfg.Queries <= 0 {
		cfg = DefaultFig7Config()
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	queries := f.SampleTest(cfg.Queries)
	if len(queries) == 0 {
		return nil, fmt.Errorf("fig7: empty test sample")
	}

	// Shared engine with sampled server-side processing time.
	engine := searchengine.NewEngine()
	engineSrv := searchengine.NewServer(engine)
	engineDelay, err := netsim.NewLognormal(cfg.EngineMedian, 0.3, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	engineLinkForSrv := netsim.NewLink(engineDelay, cfg.Scale)
	engineSrv.DelayFn = engineLinkForSrv.Delay
	if err := engineSrv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = engineSrv.Shutdown(sctx)
	}()

	mkLink := func(median time.Duration, seedOff uint64) (*netsim.Link, error) {
		m, err := netsim.NewLognormal(median, netsim.WANSigma, cfg.Seed+seedOff)
		if err != nil {
			return nil, err
		}
		return netsim.NewLink(m, cfg.Scale), nil
	}

	// --- Direct: client -> engine over one WAN link ---
	directLink, err := mkLink(netsim.ClientEngineMedian, 11)
	if err != nil {
		return nil, err
	}
	directClient := &http.Client{
		Transport: &netsim.Transport{Link: directLink},
		Timeout:   5 * time.Minute,
	}
	var direct metrics.Distribution
	for _, rec := range queries {
		start := time.Now()
		resp, err := directClient.Get(engineSrv.URL() + "/search?q=" + urlQuery(rec.Query) + "&count=20")
		if err != nil {
			return nil, fmt.Errorf("fig7 direct: %w", err)
		}
		var results []searchengine.Result
		if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
			_ = resp.Body.Close()
			return nil, err
		}
		_ = resp.Body.Close()
		direct.Add(time.Since(start).Seconds() / cfg.Scale)
	}

	// --- X-Search: broker -> proxy (enclave) -> engine ---
	proxyEngineLink, err := mkLink(netsim.ProxyEngineMedian, 13)
	if err != nil {
		return nil, err
	}
	xsProxy, err := proxy.New(proxy.Config{
		K:             cfg.K,
		Engines:       []proxy.EngineSpec{{Host: engineSrv.Addr()}},
		Seed:          cfg.Seed,
		EngineLink:    proxyEngineLink,
		EnclaveConfig: enclave.Config{TransitionCost: 3 * time.Microsecond},
	})
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
	clientProxyLink, err := mkLink(netsim.ClientProxyMedian, 17)
	if err != nil {
		return nil, err
	}
	b, err := broker.New(broker.Config{
		ProxyURL:   xsProxy.URL(),
		ServiceKey: xsProxy.AttestationService().PublicKey(),
		Policy: attestation.Policy{
			AcceptedMeasurements: []enclave.Measurement{xsProxy.Measurement()},
		},
		HTTPClient: &http.Client{
			Transport: &netsim.Transport{Link: clientProxyLink},
			Timeout:   5 * time.Minute,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := b.Connect(context.Background()); err != nil {
		return nil, fmt.Errorf("fig7 attest: %w", err)
	}
	// Warm the proxy history so obfuscation has fakes, as a deployed
	// proxy would.
	for _, q := range f.RandomTrainQueries(20) {
		if _, err := b.Search(context.Background(), q); err != nil {
			return nil, fmt.Errorf("fig7 warmup: %w", err)
		}
	}
	var xs metrics.Distribution
	for _, rec := range queries {
		start := time.Now()
		if _, err := b.Search(context.Background(), rec.Query); err != nil {
			return nil, fmt.Errorf("fig7 xsearch: %w", err)
		}
		xs.Add(time.Since(start).Seconds() / cfg.Scale)
	}

	// --- Tor: 3-hop circuits, exit fetches from the engine ---
	exitLink, err := mkLink(netsim.ProxyEngineMedian, 19)
	if err != nil {
		return nil, err
	}
	exitClient := &http.Client{
		Transport: &netsim.Transport{Link: exitLink},
		Timeout:   5 * time.Minute,
	}
	network, err := tor.NewNetwork(tor.NetworkConfig{
		Relays:    5,
		HopMedian: netsim.RelayHopMedian,
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
		Exit: func(payload []byte) ([]byte, error) {
			resp, err := exitClient.Get(engineSrv.URL() + "/search?q=" + urlQuery(string(payload)) + "&count=20")
			if err != nil {
				return nil, err
			}
			defer func() { _ = resp.Body.Close() }()
			var results []searchengine.Result
			if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
				return nil, err
			}
			out, err := json.Marshal(results)
			if err != nil {
				return nil, err
			}
			return out, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer network.Close()
	circuits := make([]*tor.Circuit, 0, cfg.Circuits)
	for i := 0; i < cfg.Circuits; i++ {
		c, err := network.BuildCircuit(3)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		circuits = append(circuits, c)
	}
	var torDist metrics.Distribution
	for i, rec := range queries {
		c := circuits[i%len(circuits)]
		start := time.Now()
		if _, err := c.Fetch([]byte(rec.Query), 5*time.Minute); err != nil {
			return nil, fmt.Errorf("fig7 tor: %w", err)
		}
		torDist.Add(time.Since(start).Seconds() / cfg.Scale)
	}

	fig := metrics.NewFigure(
		"Figure 7: CDF of end-to-end search round-trip time",
		"seconds", "CDF")
	addCDF(fig.AddSeries("Direct"), &direct, cfg.Points)
	addCDF(fig.AddSeries("X-Search (k="+fmt.Sprint(cfg.K)+")"), &xs, cfg.Points)
	addCDF(fig.AddSeries("Tor"), &torDist, cfg.Points)

	return &Fig7Result{
		Figure: fig,
		Median: map[string]float64{
			"Direct":   direct.Median(),
			"X-Search": xs.Median(),
			"Tor":      torDist.Median(),
		},
		P99: map[string]float64{
			"Direct":   direct.Percentile(99),
			"X-Search": xs.Percentile(99),
			"Tor":      torDist.Percentile(99),
		},
	}, nil
}

func addCDF(s *metrics.Series, d *metrics.Distribution, points int) {
	for _, p := range d.CDFSeries(points) {
		s.Add(p.X, p.Y)
	}
}
