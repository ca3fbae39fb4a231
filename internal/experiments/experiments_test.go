package experiments

import (
	"strings"
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

// smallFixture is shared across tests; building it once keeps the suite
// fast while still exercising the full pipeline.
func smallFixture(t *testing.T) *Fixture {
	t.Helper()
	f, err := NewFixture(FixtureConfig{Users: 60, MeanQueries: 120, ActiveUsers: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFixtureValidation(t *testing.T) {
	if _, err := NewFixture(FixtureConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestFixtureShape(t *testing.T) {
	f := smallFixture(t)
	if len(f.Train.Records) == 0 || len(f.Test.Records) == 0 {
		t.Fatal("empty split")
	}
	if got := len(f.Log.UserIDs()); got != 40 {
		t.Errorf("active users = %d", got)
	}
	if len(f.Attack.Users()) == 0 {
		t.Error("attack has no profiles")
	}
	if f.CoMatrix.NumTerms() == 0 {
		t.Error("empty co-occurrence matrix")
	}
	sample := f.SampleTest(50)
	if len(sample) != 50 {
		t.Errorf("sample = %d", len(sample))
	}
	if got := len(f.SampleTest(1 << 30)); got != len(f.Test.Records) {
		t.Errorf("oversample = %d", got)
	}
	if got := len(f.RandomTrainQueries(5)); got != 5 {
		t.Errorf("RandomTrainQueries = %d", got)
	}
}

func TestFig1Shapes(t *testing.T) {
	f := smallFixture(t)
	res, err := RunFig1(f, Fig1Config{Fakes: 300, Points: 11, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: X-Search fakes are verbatim past queries
	// (max similarity 1), while PEAS and TMN fakes are mostly "original".
	if res.XSearchMedian < 0.999 {
		t.Errorf("X-Search median max-sim = %f, want 1", res.XSearchMedian)
	}
	if res.TMNMedian > 0.2 {
		t.Errorf("TMN median max-sim = %f, want near 0 (disjoint vocab)", res.TMNMedian)
	}
	if res.PEASMedian >= res.XSearchMedian {
		t.Errorf("PEAS median %f should be below X-Search median", res.PEASMedian)
	}
	out := res.Figure.Render()
	for _, want := range []string{"PEAS", "TMN", "X-Search"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing series %q", want)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	f := smallFixture(t)
	res, err := RunFig3(f, Fig3Config{MaxK: 3, TestQueries: 150})
	if err != nil {
		t.Fatal(err)
	}
	// k=0 both systems coincide (unlinkability only) and re-identify a
	// meaningful fraction.
	if res.RateAtK0 < 0.05 {
		t.Errorf("k=0 rate = %f suspiciously low", res.RateAtK0)
	}
	if res.XSearch[0] != res.PEAS[0] {
		// Both evaluate the bare query at k=0; rates use the same
		// attack, so they should match closely (identical protect).
		diff := res.XSearch[0] - res.PEAS[0]
		if diff < -0.05 || diff > 0.05 {
			t.Errorf("k=0 rates diverge: %f vs %f", res.XSearch[0], res.PEAS[0])
		}
	}
	// Obfuscation must reduce re-identification relative to k=0.
	if res.XSearch[3] >= res.RateAtK0 {
		t.Errorf("X-Search k=3 rate %f did not drop below k=0 rate %f",
			res.XSearch[3], res.RateAtK0)
	}
	// The paper's ordering: X-Search resists better than PEAS for k >= 1.
	for k := 1; k <= 3; k++ {
		if res.XSearch[k] > res.PEAS[k] {
			t.Errorf("k=%d: X-Search rate %f > PEAS rate %f (paper: XS <= PEAS)",
				k, res.XSearch[k], res.PEAS[k])
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	f := smallFixture(t)
	res, err := RunFig4(f, Fig4Config{MaxK: 3, Queries: 40, TopN: 20, DocsPerTopic: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// k=0: no fakes, filter only drops zero-score results; accuracy high.
	if res.Recall[0] < 0.9 || res.Precision[0] < 0.9 {
		t.Errorf("k=0 accuracy = (%f, %f), want ~1", res.Precision[0], res.Recall[0])
	}
	// Paper headline: both above 0.8 at k=2 (loose bound for small corpus).
	if res.RecallAtK2 < 0.6 {
		t.Errorf("recall@k=2 = %f, want >= 0.6", res.RecallAtK2)
	}
	if res.PrecisionAtK2 < 0.6 {
		t.Errorf("precision@k=2 = %f, want >= 0.6", res.PrecisionAtK2)
	}
	// Monotone-ish decline: k=3 no better than k=0.
	if res.Recall[3] > res.Recall[0]+1e-9 {
		t.Errorf("recall grew with k: %f > %f", res.Recall[3], res.Recall[0])
	}
}

func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("wall-clock latency ordering is unreliable under the race detector")
	}
	f := smallFixture(t)
	cfg := Fig5Config{
		XSearchRates:     []float64{2000, 8000},
		PEASRates:        []float64{500, 2000},
		TorRates:         []float64{50, 150},
		Duration:         400 * time.Millisecond,
		Workers:          32,
		MaxP50:           2 * time.Second,
		TorHopDelay:      5 * time.Millisecond,
		TorRelayCellRate: 2000,
		Seed:             1,
	}
	res, err := RunFig5(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range []string{"X-Search", "PEAS", "Tor"} {
		pts := res.Points[system]
		if len(pts) == 0 {
			t.Fatalf("%s has no sweep points", system)
		}
		for _, p := range pts {
			if p.Result.Latency.Count == 0 {
				t.Errorf("%s rate %f recorded nothing", system, p.Rate)
			}
		}
	}
	// Ordering at the lowest common ground, as a property of the simulated
	// network rather than of two measured medians: X-Search answers its
	// lowest rate faster than a Tor circuit's link delays alone take — 3
	// hops each way at TorHopDelay, before any relay queueing. (Comparing
	// against Tor's measured p50, 7 ms at a 0.5 ms hop, failed 1 soak run in
	// 30 on an X-Search reading of 10.8 ms; this floor is 30 ms.)
	torFloor := 2 * 3 * cfg.TorHopDelay
	xsP50 := res.Points["X-Search"][0].Result.Latency.P50
	t.Logf("X-Search p50 %v, Tor circuit floor %v, Tor p50 %v", xsP50, torFloor, res.Points["Tor"][0].Result.Latency.P50)
	if xsP50 >= torFloor {
		t.Errorf("X-Search p50 %v >= Tor's circuit floor %v", xsP50, torFloor)
	}
}

func TestFig6Shapes(t *testing.T) {
	res, err := RunFig6(Fig6Config{MaxQueries: 50000, Checkpoints: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesStored != 50000 {
		t.Errorf("stored = %d", res.QueriesStored)
	}
	if !res.FitsEPC {
		t.Error("50k queries should fit the EPC")
	}
	if res.BytesAtMax <= 0 {
		t.Error("no bytes accounted")
	}
	// Extrapolated to 1M queries the paper's claim must hold: under 90MB.
	perQuery := float64(res.BytesAtMax) / 50000
	if perQuery*1e6 >= 90*(1<<20) {
		t.Errorf("extrapolated 1M-query footprint %.1f MB exceeds EPC", perQuery*1e6/(1<<20))
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end latency run in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("wall-clock latency ordering is unreliable under the race detector")
	}
	f := smallFixture(t)
	// Scale compresses the simulated WAN and engine delays, not the proxy's
	// real seal/filter/attest work (≈ 6 ms a query), which the figure then
	// divides by Scale too. Keep Scale at 0.1 or above: at 0.02 that work
	// reads as ≈ 0.3 "WAN seconds" and the Tor-over-X-Search bar rests on a
	// 6 ms real margin, which a loaded 2-vCPU host eats; at 0.1 the medians
	// read ≈ 0.31 / 0.38 / 0.77 s, as the unscaled harness does, and the
	// margin is ≈ 33 ms real.
	res, err := RunFig7(f, Fig7Config{
		Queries:      12,
		K:            3,
		EngineMedian: 150 * time.Millisecond,
		Scale:        0.1,
		Circuits:     3,
		Points:       15,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: Direct < X-Search < Tor.
	d, x, tor := res.Median["Direct"], res.Median["X-Search"], res.Median["Tor"]
	t.Logf("medians (s): direct=%.2f xsearch=%.2f tor=%.2f", d, x, tor)
	if !(d < x && x < tor) {
		t.Errorf("median ordering violated: direct=%f xsearch=%f tor=%f", d, x, tor)
	}
	// Tor should be roughly 2x X-Search (paper: 1.06s vs 0.577s); allow a
	// broad band for the scaled run.
	if tor < 1.2*x {
		t.Errorf("tor median %f not meaningfully above xsearch %f", tor, x)
	}
	if !strings.Contains(res.Figure.Render(), "Tor") {
		t.Error("figure missing Tor series")
	}
}

func TestAblationFakeSource(t *testing.T) {
	f := smallFixture(t)
	real, synth, err := AblationFakeSource(f, 3, 150)
	if err != nil {
		t.Fatal(err)
	}
	if real > synth {
		t.Errorf("real-fakes rate %f > synthetic rate %f (paper: real resists better)", real, synth)
	}
	if _, _, err := AblationFakeSource(f, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAblationFiltering(t *testing.T) {
	f := smallFixture(t)
	withF, withoutF, err := AblationFiltering(f, 3, 30, 20)
	if err != nil {
		t.Fatal(err)
	}
	if withF <= withoutF {
		t.Errorf("filtering did not improve precision: %f <= %f", withF, withoutF)
	}
}

func TestAblationHistorySize(t *testing.T) {
	f := smallFixture(t)
	pts, err := AblationHistorySize(f, 3, []int{100, 1000}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Bytes >= pts[1].Bytes {
		t.Errorf("bytes not increasing with capacity: %d >= %d", pts[0].Bytes, pts[1].Bytes)
	}
	for _, p := range pts {
		if p.Rate < 0 || p.Rate > 1 {
			t.Errorf("rate %f out of range", p.Rate)
		}
	}
}

func TestAblationTransitionCost(t *testing.T) {
	withCost, withoutCost, err := AblationTransitionCost(50*time.Microsecond, 300)
	if err != nil {
		t.Fatal(err)
	}
	if withCost >= withoutCost {
		t.Errorf("transition cost did not reduce throughput: %f >= %f", withCost, withoutCost)
	}
}
