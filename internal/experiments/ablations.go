package experiments

import (
	"context"
	"fmt"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/searchengine"
)

// AblationFakeSource quantifies the paper's central design choice — real
// past queries as fakes versus PEAS-style synthetic fakes — inside an
// otherwise identical pipeline, at a fixed k. It returns the
// re-identification rates (lower is better).
func AblationFakeSource(f *Fixture, k, testQueries int) (realRate, syntheticRate float64, err error) {
	if k <= 0 {
		return 0, 0, fmt.Errorf("ablation: k must be positive")
	}
	sample := f.SampleTest(testQueries)
	if len(sample) == 0 {
		return 0, 0, fmt.Errorf("ablation: empty sample")
	}
	testLog := &dataset.Log{Records: sample}
	rng := f.Rand()
	realRate = f.Attack.EvaluateObfuscated(testLog, func(rec dataset.Record) core.ObfuscatedQuery {
		return core.Place(rng.IntN, rec.Query, f.RandomTrainQueries(k))
	})
	syntheticRate = f.Attack.EvaluateObfuscated(testLog, func(rec dataset.Record) core.ObfuscatedQuery {
		fakes, _ := f.CoMatrix.Fakes(rng, rec.Query, k) // never empty: NewFixture refuses one
		return core.Place(rng.IntN, rec.Query, fakes)
	})
	return realRate, syntheticRate, nil
}

// AblationFiltering measures what Algorithm 2 buys: precision of the
// returned results with and without the filtering step, at a fixed k.
func AblationFiltering(f *Fixture, k, queries, topN int) (withFilter, withoutFilter float64, err error) {
	idx := searchengine.BuildIndex(searchengine.GenerateCorpus(searchengine.CorpusConfig{
		DocsPerTopic: 100,
		Seed:         1,
	}))
	sample := f.SampleTest(queries)
	if len(sample) == 0 {
		return 0, 0, fmt.Errorf("ablation: empty sample")
	}
	rng := f.Rand()
	var sumWith, sumWithout float64
	n := 0
	for _, rec := range sample {
		reference := idx.Search(rec.Query, topN)
		if len(reference) == 0 {
			continue
		}
		ob := core.Place(rng.IntN, rec.Query, f.RandomTrainQueries(k))
		lists := make([][]searchengine.Result, len(ob.Subqueries))
		for i, q := range ob.Subqueries {
			lists[i] = idx.Search(q, topN)
		}
		merged := searchengine.MergeResultLists(lists, topN*len(ob.Subqueries))
		asCore := make([]core.Result, len(merged))
		for i, r := range merged {
			asCore[i] = core.Result{URL: r.URL, Title: r.Title, Snippet: r.Snippet}
		}
		refURLs := make([]string, len(reference))
		for i, r := range reference {
			refURLs[i] = r.URL
		}
		var fakes []string
		for i, q := range ob.Subqueries {
			if i != ob.OriginalIndex {
				fakes = append(fakes, q)
			}
		}
		filtered := core.FilterResults(rec.Query, fakes, asCore)
		fURLs := make([]string, len(filtered))
		for i, r := range filtered {
			fURLs[i] = r.URL
		}
		mURLs := make([]string, len(asCore))
		for i, r := range asCore {
			mURLs[i] = r.URL
		}
		pWith, _ := metrics.PrecisionRecall(refURLs, fURLs)
		pWithout, _ := metrics.PrecisionRecall(refURLs, mURLs)
		sumWith += pWith
		sumWithout += pWithout
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("ablation: no scorable queries")
	}
	return sumWith / float64(n), sumWithout / float64(n), nil
}

// AblationHistorySize reports the history byte footprint and the
// re-identification rate for several sliding-window bounds x, showing the
// privacy/memory trade-off of §4.3.
type HistorySizePoint struct {
	Capacity int
	Bytes    int64
	Rate     float64
}

// AblationHistorySize evaluates window sizes with k fakes drawn from a
// history limited to the most recent `capacity` training queries.
func AblationHistorySize(f *Fixture, k int, capacities []int, testQueries int) ([]HistorySizePoint, error) {
	sample := f.SampleTest(testQueries)
	if len(sample) == 0 {
		return nil, fmt.Errorf("ablation: empty sample")
	}
	testLog := &dataset.Log{Records: sample}
	rng := f.Rand()
	var out []HistorySizePoint
	for _, capacity := range capacities {
		h, err := core.NewHistory(capacity)
		if err != nil {
			return nil, err
		}
		for _, q := range f.TrainPool {
			h.Add(q)
		}
		rate := f.Attack.EvaluateObfuscated(testLog, func(rec dataset.Record) core.ObfuscatedQuery {
			return core.Place(rng.IntN, rec.Query, h.Sample(k, rng.IntN))
		})
		out = append(out, HistorySizePoint{Capacity: capacity, Bytes: h.Bytes(), Rate: rate})
	}
	return out, nil
}

// AblationTransitionCost measures enclave boundary-crossing overhead: the
// achievable plain-search throughput of an echo-mode proxy with and
// without a simulated per-transition cost. Returns requests/second.
func AblationTransitionCost(cost time.Duration, requests int) (withCost, withoutCost float64, err error) {
	run := func(tc time.Duration) (float64, error) {
		p, err := newEchoProxy(tc)
		if err != nil {
			return 0, err
		}
		defer p.destroy()
		start := time.Now()
		for i := 0; i < requests; i++ {
			if err := p.plainQuery(fmt.Sprintf("query %d", i)); err != nil {
				return 0, err
			}
		}
		elapsed := time.Since(start)
		return float64(requests) / elapsed.Seconds(), nil
	}
	if withCost, err = run(cost); err != nil {
		return 0, 0, err
	}
	if withoutCost, err = run(0); err != nil {
		return 0, 0, err
	}
	return withCost, withoutCost, nil
}

// echoProxy is a minimal in-process enclave pipeline for the transition
// ablation (no HTTP, to isolate the boundary cost).
type echoProxy struct {
	encl *enclave.Enclave
}

func newEchoProxy(tc time.Duration) (*echoProxy, error) {
	platform := enclave.NewPlatform()
	history, err := core.NewHistory(10000)
	if err != nil {
		return nil, err
	}
	ob, err := core.NewObfuscator(history, 3, core.WithSeed(1))
	if err != nil {
		return nil, err
	}
	b := platform.NewBuilder(enclave.Config{TransitionCost: tc})
	if err := b.RegisterECall("request", func(env enclave.Env, arg []byte) ([]byte, error) {
		oq, _ := ob.Obfuscate(string(arg))
		return []byte(oq.Query()), nil
	}); err != nil {
		return nil, err
	}
	encl, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &echoProxy{encl: encl}, nil
}

func (p *echoProxy) plainQuery(q string) error {
	_, err := p.encl.ECall(context.Background(), "request", []byte(q))
	return err
}

func (p *echoProxy) destroy() { p.encl.Destroy() }
