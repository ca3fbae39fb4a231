package experiments

import (
	"fmt"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/metrics"
)

// Fig3Config sizes the re-identification experiment.
type Fig3Config struct {
	// MaxK is the largest number of fake queries (paper: 7).
	MaxK int
	// TestQueries bounds the evaluated test set per k.
	TestQueries int
}

// DefaultFig3Config mirrors the paper's sweep.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{MaxK: 7, TestQueries: 600}
}

// Fig3Result carries the figure and headline rates.
type Fig3Result struct {
	Figure *metrics.Figure
	// RateAtK0 is the unlinkability-only re-identification rate (~0.4 in
	// the paper).
	RateAtK0 float64
	// XSearch and PEAS map k to re-identification rate.
	XSearch map[int]float64
	PEAS    map[int]float64
}

// RunFig3 reproduces Figure 3: re-identification rate under SimAttack as a
// function of k for X-Search (fakes = real past queries) and PEAS (fakes =
// co-occurrence synthesies). k = 0 is the unlinkability-only baseline.
func RunFig3(f *Fixture, cfg Fig3Config) (*Fig3Result, error) {
	if cfg.MaxK <= 0 {
		cfg = DefaultFig3Config()
	}
	sample := f.SampleTest(cfg.TestQueries)
	if len(sample) == 0 {
		return nil, fmt.Errorf("fig3: empty test sample")
	}
	testLog := &dataset.Log{Records: sample}
	rng := f.Rand()

	res := &Fig3Result{
		XSearch: make(map[int]float64),
		PEAS:    make(map[int]float64),
	}
	fig := metrics.NewFigure(
		"Figure 3: re-identification rate vs k (SimAttack)",
		"k", "re-identification rate")
	xsSeries := fig.AddSeries("X-Search")
	peasSeries := fig.AddSeries("PEAS")

	for k := 0; k <= cfg.MaxK; k++ {
		// X-Search: fakes drawn from the history of real past queries.
		xsRate := f.Attack.EvaluateObfuscated(testLog, func(rec dataset.Record) core.ObfuscatedQuery {
			return core.Place(rng.IntN, rec.Query, f.RandomTrainQueries(k))
		})
		// PEAS: fakes from the co-occurrence matrix (never empty: NewFixture
		// refuses one, the only error Fakes has).
		peasRate := f.Attack.EvaluateObfuscated(testLog, func(rec dataset.Record) core.ObfuscatedQuery {
			fakes, _ := f.CoMatrix.Fakes(rng, rec.Query, k)
			return core.Place(rng.IntN, rec.Query, fakes)
		})
		res.XSearch[k] = xsRate
		res.PEAS[k] = peasRate
		xsSeries.Add(float64(k), xsRate)
		peasSeries.Add(float64(k), peasRate)
		if k == 0 {
			res.RateAtK0 = xsRate
		}
	}
	res.Figure = fig
	return res, nil
}
