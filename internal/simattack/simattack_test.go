package simattack

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/textutil"
)

// tinyLog builds a deterministic two-user log with clearly separated
// interests: user 1 cars, user 2 cooking.
func tinyLog() *dataset.Log {
	t0 := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(uid int, qs ...string) []dataset.Record {
		recs := make([]dataset.Record, len(qs))
		for i, q := range qs {
			recs[i] = dataset.Record{UserID: uid, Query: q, Time: t0.Add(time.Duration(i) * time.Minute)}
		}
		return recs
	}
	log := &dataset.Log{}
	log.Records = append(log.Records, mk(1,
		"used car dealer", "car engine repair", "red sports car",
		"car brakes squeaking", "cheap car tires")...)
	log.Records = append(log.Records, mk(2,
		"chicken casserole recipe", "easy dinner recipe", "chocolate cake baking",
		"slow cooker soup", "bread dough recipe")...)
	return log
}

// similarity is sim(q, P_u) by brute force: exponential smoothing over
// the ascending-sorted positive cosine similarities between q and every
// query of u's profile.
func similarity(a *Attack, query string, user int) float64 {
	qv := textutil.NewVector(query)
	qn := qv.Norm()
	if qn == 0 {
		return 0
	}
	var sims []float64
	for _, pq := range a.profiles[user] {
		if s := cosine(qv, qn, pq); s > 0 {
			sims = append(sims, s)
		}
	}
	return a.smooth(sims)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(tinyLog(), 0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := New(tinyLog(), 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestSimilarityDiscriminates(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	carUser1 := similarity(a, "car transmission noise", 1)
	carUser2 := similarity(a, "car transmission noise", 2)
	if carUser1 <= carUser2 {
		t.Errorf("car query: sim(u1)=%f <= sim(u2)=%f", carUser1, carUser2)
	}
	cookUser2 := similarity(a, "casserole dinner ideas", 2)
	cookUser1 := similarity(a, "casserole dinner ideas", 1)
	if cookUser2 <= cookUser1 {
		t.Errorf("cooking query: sim(u2)=%f <= sim(u1)=%f", cookUser2, cookUser1)
	}
}

func TestSimilarityRange(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"car", "recipe", "nothing relevant here", ""} {
		for _, u := range a.users {
			s := similarity(a, q, u)
			if s < 0 || s > 1 {
				t.Errorf("similarity(%q, %d) = %f out of range", q, u, s)
			}
		}
	}
}

func TestSmoothingWeightsTopSimilarity(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	// Exact match of a profile query should approach the profile's top:
	// ascending smoothing gives the last (largest) value weight alpha.
	s := similarity(a, "red sports car", 1)
	if s < DefaultAlpha*0.99 {
		t.Errorf("exact-match similarity %f < alpha", s)
	}
}

// TestGuessUser: an unprotected query is a set of one sub-query, and the
// attack names its user.
func TestGuessUser(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{"car engine overhaul": 1, "cake recipe easy": 2} {
		if qi, uid, ok := a.GuessPair([]string{q}); !ok || qi != 0 || uid != want {
			t.Errorf("GuessPair(%q) = %d, %d, %v; want 0, %d, true", q, qi, uid, ok, want)
		}
	}
	// Query matching nothing: no unique maximum.
	if _, _, ok := a.GuessPair([]string{"zzz qqq xxx"}); ok {
		t.Error("nonsense query should not re-identify")
	}
}

func TestGuessPair(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	// Original is a car query at index 1; the fake is from cooking but
	// phrased as a weak match.
	subs := []string{"slow cooker soup", "red sports car dealer"}
	qi, uid, ok := a.GuessPair(subs)
	if !ok {
		t.Fatal("attack failed on an easy pair")
	}
	// Both subqueries match real profiles strongly; the attack picks the
	// global max. Either way the result must be consistent.
	if qi < 0 || qi >= len(subs) {
		t.Fatalf("qi = %d", qi)
	}
	if uid != 1 && uid != 2 {
		t.Fatalf("uid = %d", uid)
	}
	// Nonsense sub-queries: unsuccessful.
	if _, _, ok := a.GuessPair([]string{"zzz", "qqq"}); ok {
		t.Error("attack succeeded on nonsense")
	}
}

func TestEvaluateObfuscatedReducesRate(t *testing.T) {
	// Synthetic log with enough users for obfuscation to matter.
	cfg := dataset.DefaultGeneratorConfig()
	cfg.Users = 30
	cfg.MeanQueries = 120
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := gen.Generate()
	train, test, err := full.Split(2.0 / 3.0)
	if err != nil {
		t.Fatal(err)
	}
	// Subsample test set for speed.
	test.Records = test.Records[:200]

	a, err := New(train, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline is unlinkability alone: k = 0 fakes, as Fig. 3's k = 0
	// point is.
	baseline := a.EvaluateObfuscated(test, func(rec dataset.Record) core.ObfuscatedQuery {
		return core.ObfuscatedQuery{Subqueries: []string{rec.Query}}
	})
	if baseline <= 0.02 {
		t.Fatalf("baseline re-identification %f suspiciously low", baseline)
	}

	// X-Search-style obfuscation with k=3 real past queries from other
	// records of the log.
	pool := train.Queries()
	i := 0
	obfuscated := a.EvaluateObfuscated(test, func(rec dataset.Record) core.ObfuscatedQuery {
		subs := []string{
			pool[(i*3)%len(pool)],
			rec.Query,
			pool[(i*3+1)%len(pool)],
			pool[(i*3+2)%len(pool)],
		}
		i++
		return core.ObfuscatedQuery{Subqueries: subs, OriginalIndex: 1}
	})
	if obfuscated >= baseline {
		t.Errorf("obfuscation did not reduce re-identification: %f >= %f",
			obfuscated, baseline)
	}
}

func TestMaxQuerySimilarity(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	// A verbatim past query has max similarity 1.
	if s := a.MaxQuerySimilarity("red sports car"); math.Abs(s-1) > 1e-9 {
		t.Errorf("verbatim similarity = %f", s)
	}
	// A disjoint-vocabulary query has similarity 0.
	if s := a.MaxQuerySimilarity("parliament sanctions embargo"); s != 0 {
		t.Errorf("disjoint similarity = %f", s)
	}
	// A partial overlap lands strictly between.
	s := a.MaxQuerySimilarity("car holidays")
	if s <= 0 || s >= 1 {
		t.Errorf("partial similarity = %f", s)
	}
}

func BenchmarkGuessPair(b *testing.B) {
	cfg := dataset.DefaultGeneratorConfig()
	cfg.Users = 50
	cfg.MeanQueries = 150
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	full := gen.Generate()
	train, test, err := full.Split(2.0 / 3.0)
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(train, DefaultAlpha)
	if err != nil {
		b.Fatal(err)
	}
	pool := train.Queries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := test.Records[i%len(test.Records)]
		subs := []string{pool[i%len(pool)], rec.Query, pool[(i+1)%len(pool)]}
		a.GuessPair(subs)
	}
}

// Smoothing must be monotone: adding a strictly positive similarity to a
// profile can only increase (or keep) the smoothed score, and scores stay
// within [0, 1] for cosine inputs.
func TestSmoothingMonotoneProperty(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []float64, extraSeed uint8) bool {
		sims := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v > 0 && v <= 1 && !math.IsNaN(v) {
				sims = append(sims, v)
			}
		}
		base := a.smooth(append([]float64(nil), sims...))
		if base < 0 || base > 1 {
			return false
		}
		extra := float64(extraSeed%100+1) / 100.0
		grown := a.smooth(append(append([]float64(nil), sims...), extra))
		return grown+1e-12 >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// An exact profile query always yields a weakly higher similarity for its
// owner than for a user who never issued anything related.
func TestExactQueryFavorsOwnerProperty(t *testing.T) {
	a, err := New(tinyLog(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	carQueries := []string{"used car dealer", "car engine repair", "red sports car"}
	for _, q := range carQueries {
		if similarity(a, q, 1) < similarity(a, q, 2) {
			t.Errorf("query %q scored higher for non-owner", q)
		}
	}
}
