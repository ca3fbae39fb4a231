// Command xsearch-bench regenerates the paper's evaluation: Figures 1, 3, 4,
// 5, 6 and 7 and the paper's own ablations (fake source, filtering, history
// size, transition cost), each printed as an aligned data table with a
// paper-vs-measured summary. "Did
// this change make the system faster" is not asked here: that is bench/
// (`bash bench/run.sh`).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"xsearch/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xsearch-bench:", err)
		os.Exit(1)
	}
}

// options are the flags every figure reads.
type options struct {
	quick   bool
	seed    uint64
	useHTTP bool
}

// figures is what -figs can name, in the order it runs.
var figures = []struct {
	name string
	run  func(*experiments.Fixture, options) error
}{
	{"1", runFig1},
	{"3", runFig3},
	{"4", runFig4},
	{"5", runFig5},
	{"6", runFig6},
	{"7", runFig7},
	{"ablations", runAblations},
}

func run() error {
	var o options
	figs := flag.String("figs", "1,3,4,5,6,7,ablations", "comma-separated figures to run")
	flag.BoolVar(&o.quick, "quick", false, "scaled-down sizes (CI-friendly)")
	flag.Uint64Var(&o.seed, "seed", 1, "experiment seed")
	flag.BoolVar(&o.useHTTP, "http", false, "Figure 5 over real loopback HTTP (bare-metal runs)")
	flag.Parse()

	// An unknown name is an error before anything runs, not a silent skip.
	var names []string
	for _, fig := range figures {
		names = append(names, fig.name)
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(names, f) {
			return fmt.Errorf("unknown figure %q, nothing run (-figs takes %s)", f, strings.Join(names, ","))
		}
		want[f] = true
	}

	fixCfg := experiments.DefaultFixtureConfig()
	fixCfg.Seed = o.seed
	if o.quick {
		fixCfg.Users, fixCfg.MeanQueries, fixCfg.ActiveUsers = 80, 150, 50
	}
	fmt.Printf("# X-Search evaluation harness (seed=%d, quick=%t)\n", o.seed, o.quick)
	start := time.Now()
	fixture, err := experiments.NewFixture(fixCfg)
	if err != nil {
		return err
	}
	stats := fixture.Log.Stats()
	fmt.Printf("# dataset: %d records, %d users, %d unique queries (train %d / test %d)\n\n",
		stats.Records, stats.Users, stats.UniqueQueries,
		len(fixture.Train.Records), len(fixture.Test.Records))

	for _, fig := range figures {
		if !want[fig.name] {
			continue
		}
		if err := fig.run(fixture, o); err != nil {
			return err
		}
	}
	fmt.Printf("# total harness time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFig1(f *experiments.Fixture, o options) error {
	cfg := experiments.DefaultFig1Config()
	cfg.Seed = o.seed
	if o.quick {
		cfg.Fakes = 500
	}
	res, err := experiments.RunFig1(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# median max-similarity: PEAS=%.3f TMN=%.3f GooPIR=%.3f X-Search=%.3f\n",
		res.PEASMedian, res.TMNMedian, res.GooPIRMedian, res.XSearchMedian)
	fmt.Printf("# paper: almost all PEAS/TMN fakes are 'original' (never appear in the log);\n")
	fmt.Printf("# X-Search fakes are verbatim past queries (similarity 1 by construction).\n\n")
	return nil
}

func runFig3(f *experiments.Fixture, o options) error {
	cfg := experiments.DefaultFig3Config()
	if o.quick {
		cfg.TestQueries = 250
	}
	res, err := experiments.RunFig3(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	improvement := 0.0
	n := 0
	for k := 1; k <= cfg.MaxK; k++ {
		if res.PEAS[k] > 0 {
			improvement += (res.PEAS[k] - res.XSearch[k]) / res.PEAS[k]
			n++
		}
	}
	if n > 0 {
		improvement = improvement / float64(n) * 100
	}
	fmt.Printf("# k=0 (unlinkability only) rate: %.3f  [paper: ~0.40]\n", res.RateAtK0)
	fmt.Printf("# k=1: X-Search=%.3f PEAS=%.3f      [paper: 0.16 vs ~0.20]\n",
		res.XSearch[1], res.PEAS[1])
	fmt.Printf("# mean X-Search improvement over PEAS (k>=1): %.1f%%  [paper: 23-35%%]\n\n", improvement)
	return nil
}

func runFig4(f *experiments.Fixture, o options) error {
	cfg := experiments.DefaultFig4Config()
	cfg.Seed = o.seed
	if o.quick {
		cfg.Queries, cfg.DocsPerTopic = 50, 100
	}
	res, err := experiments.RunFig4(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# k=2: precision=%.3f recall=%.3f  [paper: both > 0.80]\n\n",
		res.PrecisionAtK2, res.RecallAtK2)
	return nil
}

func runFig5(f *experiments.Fixture, o options) error {
	cfg := experiments.DefaultFig5Config()
	cfg.Seed = o.seed
	cfg.UseHTTP = o.useHTTP
	if o.quick {
		cfg.Duration = time.Second
		cfg.XSearchRates = []float64{1000, 5000, 10000, 20000, 30000}
		cfg.PEASRates = []float64{250, 1000, 2000, 4000}
		cfg.TorRates = []float64{50, 100, 200, 400, 800}
	}
	res, err := experiments.RunFig5(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# max rate with sub-second p50: X-Search=%.0f PEAS=%.0f Tor=%.0f req/s\n",
		res.MaxSubSecondRate["X-Search"], res.MaxSubSecondRate["PEAS"], res.MaxSubSecondRate["Tor"])
	fmt.Printf("# paper: X-Search 25,000; PEAS ~1,000; Tor ~100 (shape: XS >> PEAS >> Tor)\n\n")
	return nil
}

func runFig6(_ *experiments.Fixture, o options) error {
	cfg := experiments.DefaultFig6Config()
	cfg.Seed = o.seed
	if o.quick {
		cfg.MaxQueries = 200000
		cfg.Checkpoints = 20
	}
	res, err := experiments.RunFig6(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# %d queries stored in %.1f MB; fits 90 MB EPC: %t  [paper: >1M fit]\n\n",
		res.QueriesStored, float64(res.BytesAtMax)/(1<<20), res.FitsEPC)
	return nil
}

func runFig7(f *experiments.Fixture, o options) error {
	cfg := experiments.DefaultFig7Config()
	cfg.Seed = o.seed
	if o.quick {
		cfg.Queries = 50
		cfg.Scale = 0.1
	}
	res, err := experiments.RunFig7(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Figure.Render())
	fmt.Printf("# medians (s): Direct=%.3f X-Search=%.3f Tor=%.3f  [paper: XS 0.577, Tor 1.06]\n",
		res.Median["Direct"], res.Median["X-Search"], res.Median["Tor"])
	fmt.Printf("# p99     (s): Direct=%.3f X-Search=%.3f Tor=%.3f  [paper: XS 0.873, Tor ~3]\n\n",
		res.P99["Direct"], res.P99["X-Search"], res.P99["Tor"])
	return nil
}

func runAblations(f *experiments.Fixture, o options) error {
	tests := 400
	if o.quick {
		tests = 200
	}
	realRate, synthRate, err := experiments.AblationFakeSource(f, 3, tests)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: fake source at k=3 — re-identification rate\n")
	fmt.Printf("real past queries (X-Search)    %.3f\n", realRate)
	fmt.Printf("co-occurrence synthetic (PEAS)  %.3f\n\n", synthRate)

	withF, withoutF, err := experiments.AblationFiltering(f, 3, 40, 20)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: Algorithm 2 filtering at k=3 — precision vs the\n")
	fmt.Printf("# unobfuscated query's results\n")
	fmt.Printf("with filtering     %.3f\n", withF)
	fmt.Printf("without filtering  %.3f\n\n", withoutF)

	pts, err := experiments.AblationHistorySize(f, 3, []int{100, 1000, 10000}, tests/2)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: history window size at k=3\n")
	fmt.Printf("capacity  bytes     reident_rate\n")
	for _, p := range pts {
		fmt.Printf("%-8d  %-8d  %.3f\n", p.Capacity, p.Bytes, p.Rate)
	}
	fmt.Println()

	withCost, withoutCost, err := experiments.AblationTransitionCost(3*time.Microsecond, 3000)
	if err != nil {
		return err
	}
	fmt.Printf("# Ablation: enclave transition cost (3us per crossing, serial ecalls)\n")
	fmt.Printf("with cost     %.0f req/s\n", withCost)
	fmt.Printf("without cost  %.0f req/s\n\n", withoutCost)
	return nil
}
