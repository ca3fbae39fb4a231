package experiments

import (
	"context"
	"fmt"
	"time"

	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
)

// ConnScalingConfig sizes the scaling-layer ablation: the same query
// workload driven through the full enclave pipeline against a real
// loopback engine under three transport configurations — cold (a fresh
// socket per request, the paper's original behaviour), pooled (in-enclave
// keep-alive connection reuse), and pooled+cached (repeat queries served
// from the in-enclave result cache without an engine round trip).
type ConnScalingConfig struct {
	// Queries is the number of distinct queries per pass.
	Queries int
	// Repeats is the number of passes over the query set; passes after
	// the first repeat every query, so with caching they hit.
	Repeats int
	// PoolSize bounds the enclave connection pool in the pooled variants.
	PoolSize int
	// CacheBytes/CacheTTL size the result cache in the cached variant.
	CacheBytes int64
	CacheTTL   time.Duration
	// DocsPerTopic sizes the engine corpus.
	DocsPerTopic int
	// Seed fixes obfuscation randomness.
	Seed uint64
}

// DefaultConnScalingConfig is the full-size ablation.
func DefaultConnScalingConfig() ConnScalingConfig {
	return ConnScalingConfig{
		Queries:      64,
		Repeats:      4,
		PoolSize:     8,
		CacheBytes:   8 << 20,
		CacheTTL:     time.Minute,
		DocsPerTopic: 40,
		Seed:         1,
	}
}

// ConnScalingVariant is one transport configuration's measurements.
type ConnScalingVariant struct {
	Name       string
	PoolSize   int
	CacheBytes int64
	Requests   int
	// Throughput over the whole run (requests/second).
	Throughput float64
	// MeanLatency over all requests; FirstPassMean covers the first pass
	// (cold sockets, cold cache) and RepeatPassMean the remaining passes
	// (warm pool, cache hits where enabled).
	MeanLatency    time.Duration
	FirstPassMean  time.Duration
	RepeatPassMean time.Duration
	// ReuseRatio and HitRatio are the proxy's own gauges after the run.
	ReuseRatio float64
	HitRatio   float64
}

// ConnScalingResult carries the three variants plus the headline numbers.
type ConnScalingResult struct {
	Variants []ConnScalingVariant
	// ColdLatency is the cold variant's overall mean; CachedHitLatency is
	// the cached variant's repeat-pass mean; CachedSpeedup their ratio.
	ColdLatency      time.Duration
	CachedHitLatency time.Duration
	CachedSpeedup    float64
}

// RunConnScaling measures the scaling layer end to end. One engine serves
// all variants; each variant gets its own enclave so pool and cache state
// never leak between configurations.
func RunConnScaling(cfg ConnScalingConfig) (*ConnScalingResult, error) {
	if cfg.Queries <= 0 || cfg.Repeats < 2 {
		return nil, fmt.Errorf("scaling: need Queries > 0 and Repeats >= 2")
	}
	engine := searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{
			DocsPerTopic: cfg.DocsPerTopic,
			Seed:         cfg.Seed,
		})))
	srv := searchengine.NewServer(engine)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	queries := make([]string, cfg.Queries)
	for i := range queries {
		queries[i] = fmt.Sprintf("scaling workload query %03d", i)
	}

	variants := []ConnScalingVariant{
		{Name: "cold", PoolSize: -1},
		{Name: "pooled", PoolSize: cfg.PoolSize},
		{Name: "pooled+cached", PoolSize: cfg.PoolSize, CacheBytes: cfg.CacheBytes},
	}
	res := &ConnScalingResult{}
	for i := range variants {
		v := &variants[i]
		if err := runScalingVariant(v, srv.Addr(), queries, cfg); err != nil {
			return nil, fmt.Errorf("scaling: variant %s: %w", v.Name, err)
		}
	}
	res.Variants = variants
	res.ColdLatency = variants[0].MeanLatency
	res.CachedHitLatency = variants[2].RepeatPassMean
	if res.CachedHitLatency > 0 {
		res.CachedSpeedup = float64(res.ColdLatency) / float64(res.CachedHitLatency)
	}
	return res, nil
}

func runScalingVariant(v *ConnScalingVariant, engineAddr string, queries []string, cfg ConnScalingConfig) error {
	p, err := proxy.New(proxy.Config{
		K:          2,
		Engines:    []proxy.EngineSpec{{Host: engineAddr}},
		Seed:       cfg.Seed,
		PoolSize:   v.PoolSize,
		CacheBytes: v.CacheBytes,
		CacheTTL:   cfg.CacheTTL,
	})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	ctx := context.Background()
	var firstPass, repeatPass time.Duration
	start := time.Now()
	for pass := 0; pass < cfg.Repeats; pass++ {
		for _, q := range queries {
			t0 := time.Now()
			if _, err := p.ServeQuery(ctx, q); err != nil {
				return err
			}
			d := time.Since(t0)
			if pass == 0 {
				firstPass += d
			} else {
				repeatPass += d
			}
		}
	}
	elapsed := time.Since(start)
	v.Requests = cfg.Repeats * len(queries)
	v.Throughput = float64(v.Requests) / elapsed.Seconds()
	v.MeanLatency = (firstPass + repeatPass) / time.Duration(v.Requests)
	v.FirstPassMean = firstPass / time.Duration(len(queries))
	v.RepeatPassMean = repeatPass / time.Duration((cfg.Repeats-1)*len(queries))
	st := p.Stats()
	v.ReuseRatio = st.PoolReuseRatio
	v.HitRatio = st.CacheHitRatio
	return nil
}
