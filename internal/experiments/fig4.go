package experiments

import (
	"fmt"

	"xsearch/internal/core"
	"xsearch/internal/metrics"
	"xsearch/internal/searchengine"
)

// Fig4Config sizes the accuracy experiment.
type Fig4Config struct {
	// MaxK is the largest number of fake queries (paper: 7).
	MaxK int
	// Queries is the number of test queries per k (paper: 100, bounded
	// by Bing's rate limits).
	Queries int
	// TopN is the result-list depth (paper: first 20 results).
	TopN int
	// DocsPerTopic sizes the engine corpus.
	DocsPerTopic int
	// Seed fixes the corpus.
	Seed uint64
}

// DefaultFig4Config mirrors the paper's methodology (§5.3.2).
func DefaultFig4Config() Fig4Config {
	return Fig4Config{MaxK: 7, Queries: 100, TopN: 20, DocsPerTopic: 200, Seed: 1}
}

// Fig4Result carries the figure plus the headline k=2 values the paper
// quotes (recall and precision both > 0.8).
type Fig4Result struct {
	Figure        *metrics.Figure
	Precision     map[int]float64
	Recall        map[int]float64
	RecallAtK2    float64
	PrecisionAtK2 float64
}

// RunFig4 reproduces Figure 4: precision and recall of X-Search's filtered
// results against the results of the unobfuscated query, as k grows. Per
// the paper's methodology, the obfuscated query executes as independent
// sub-queries whose top-N lists are merged (Bing's OR handled only single
// words), then Algorithm 2 filters the merge.
func RunFig4(f *Fixture, cfg Fig4Config) (*Fig4Result, error) {
	if cfg.MaxK <= 0 {
		cfg = DefaultFig4Config()
	}
	idx := searchengine.BuildIndex(searchengine.GenerateCorpus(searchengine.CorpusConfig{
		DocsPerTopic: cfg.DocsPerTopic,
		Seed:         cfg.Seed,
	}))
	rng := f.Rand()

	res := &Fig4Result{
		Precision: make(map[int]float64),
		Recall:    make(map[int]float64),
	}
	fig := metrics.NewFigure(
		"Figure 4: accuracy of filtered results vs k",
		"k", "accuracy")
	pSeries := fig.AddSeries("Precision")
	rSeries := fig.AddSeries("Recall")

	for k := 0; k <= cfg.MaxK; k++ {
		sample := f.SampleTest(cfg.Queries)
		if len(sample) == 0 {
			return nil, fmt.Errorf("fig4: empty test sample")
		}
		var sumP, sumR float64
		n := 0
		for _, rec := range sample {
			reference := idx.Search(rec.Query, cfg.TopN)
			if len(reference) == 0 {
				continue // query found nothing; accuracy undefined
			}
			fakes := f.RandomTrainQueries(k)
			// Paper methodology: run each sub-query independently and
			// merge the k+1 result lists; the original sits at a random
			// position.
			ob := core.Place(rng.IntN, rec.Query, fakes)
			lists := make([][]searchengine.Result, len(ob.Subqueries))
			for i, q := range ob.Subqueries {
				lists[i] = idx.Search(q, cfg.TopN)
			}
			merged := searchengine.MergeResultLists(lists, cfg.TopN*len(ob.Subqueries))
			asCore := make([]core.Result, len(merged))
			for i, r := range merged {
				asCore[i] = core.Result{URL: r.URL, Title: r.Title, Snippet: r.Snippet}
			}
			var fakesOnly []string
			for i, q := range ob.Subqueries {
				if i != ob.OriginalIndex {
					fakesOnly = append(fakesOnly, q)
				}
			}
			filtered := core.FilterResults(rec.Query, fakesOnly, asCore)

			refURLs := make([]string, len(reference))
			for i, r := range reference {
				refURLs[i] = r.URL
			}
			gotURLs := make([]string, len(filtered))
			for i, r := range filtered {
				gotURLs[i] = r.URL
			}
			p, r := metrics.PrecisionRecall(refURLs, gotURLs)
			sumP += p
			sumR += r
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("fig4: no scorable queries at k=%d", k)
		}
		res.Precision[k] = sumP / float64(n)
		res.Recall[k] = sumR / float64(n)
		pSeries.Add(float64(k), res.Precision[k])
		rSeries.Add(float64(k), res.Recall[k])
	}
	res.PrecisionAtK2 = res.Precision[2]
	res.RecallAtK2 = res.Recall[2]
	res.Figure = fig
	return res, nil
}
