package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustHistory(t *testing.T, capacity int) *History {
	t.Helper()
	h, err := NewHistory(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHistoryValidation(t *testing.T) {
	if _, err := NewHistory(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewHistory(-5); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestHistoryAddAndEvict(t *testing.T) {
	h := mustHistory(t, 3)
	for i := 0; i < 5; i++ {
		h.Add(fmt.Sprintf("query %d", i))
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	// FIFO: oldest remaining is query 2.
	want := []string{"query 2", "query 3", "query 4"}
	if got := h.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot = %v, want %v", got, want)
	}
}

func TestHistoryByteAccounting(t *testing.T) {
	h := mustHistory(t, 2)
	d1 := h.Add("abcd") // 4 bytes + overhead
	if d1 != 4+perQueryOverhead {
		t.Errorf("delta1 = %d", d1)
	}
	if h.Bytes() != d1 {
		t.Errorf("Bytes = %d", h.Bytes())
	}
	d2 := h.Add("efgh")
	if h.Bytes() != d1+d2 {
		t.Errorf("Bytes = %d", h.Bytes())
	}
	// Third add evicts "abcd": delta = len(new)-len(old) = 0.
	d3 := h.Add("wxyz")
	if d3 != 0 {
		t.Errorf("delta3 = %d", d3)
	}
	if h.Bytes() != 2*(4+perQueryOverhead) {
		t.Errorf("Bytes after wrap = %d", h.Bytes())
	}
}

// The history never exceeds capacity and its byte accounting always equals
// the sum over stored queries — checked under random workloads.
func TestHistoryInvariantsProperty(t *testing.T) {
	f := func(queries []string, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		h, err := NewHistory(capacity)
		if err != nil {
			return false
		}
		for _, q := range queries {
			h.Add(q)
		}
		if h.Len() > capacity {
			return false
		}
		var want int64
		for _, q := range h.Snapshot() {
			want += int64(len(q)) + perQueryOverhead
		}
		return h.Bytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistorySample(t *testing.T) {
	h := mustHistory(t, 10)
	rng := rand.New(rand.NewPCG(1, 1))
	if got := h.Sample(3, rng.IntN); got != nil {
		t.Errorf("empty history sample = %v", got)
	}
	h.Add("only")
	got := h.Sample(3, rng.IntN)
	if len(got) != 3 {
		t.Fatalf("sample len = %d", len(got))
	}
	for _, q := range got {
		if q != "only" {
			t.Errorf("sample = %v", got)
		}
	}
	if h.Sample(0, rng.IntN) != nil {
		t.Error("k=0 sample should be nil")
	}
}

func TestHistorySampleCoversWindow(t *testing.T) {
	h := mustHistory(t, 5)
	for i := 0; i < 8; i++ { // wraps: window holds 3..7
		h.Add(fmt.Sprintf("q%d", i))
	}
	rng := rand.New(rand.NewPCG(7, 7))
	seen := map[string]struct{}{}
	for i := 0; i < 500; i++ {
		for _, q := range h.Sample(1, rng.IntN) {
			seen[q] = struct{}{}
		}
	}
	for i := 3; i <= 7; i++ {
		if _, ok := seen[fmt.Sprintf("q%d", i)]; !ok {
			t.Errorf("q%d never sampled", i)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := seen[fmt.Sprintf("q%d", i)]; ok {
			t.Errorf("evicted q%d sampled", i)
		}
	}
}

func TestHistoryRestore(t *testing.T) {
	h := mustHistory(t, 3)
	h.Restore([]string{"a", "b", "c", "d", "e"})
	want := []string{"c", "d", "e"}
	if got := h.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot = %v, want %v", got, want)
	}
	// Continue adding after restore: FIFO continues correctly.
	h.Add("f")
	want = []string{"d", "e", "f"}
	if got := h.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("after add = %v, want %v", got, want)
	}
}

func TestHistoryJSONRoundTrip(t *testing.T) {
	h := mustHistory(t, 4)
	for _, q := range []string{"one", "two", "three"} {
		h.Add(q)
	}
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h2 := mustHistory(t, 4)
	if err := h2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Snapshot(), h2.Snapshot()) {
		t.Errorf("round trip: %v vs %v", h.Snapshot(), h2.Snapshot())
	}
	if err := h2.UnmarshalJSON([]byte("{bad")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestHistoryConcurrentAdd(t *testing.T) {
	h := mustHistory(t, 100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Add(fmt.Sprintf("w%d-q%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	if h.Len() != 100 {
		t.Errorf("Len = %d", h.Len())
	}
	var want int64
	for _, q := range h.Snapshot() {
		want += int64(len(q)) + perQueryOverhead
	}
	if h.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", h.Bytes(), want)
	}
}

func TestNewObfuscatorValidation(t *testing.T) {
	h := mustHistory(t, 10)
	if _, err := NewObfuscator(nil, 1); err == nil {
		t.Error("nil history accepted")
	}
	if _, err := NewObfuscator(h, -1); err == nil {
		t.Error("negative k accepted")
	}
	ob, err := NewObfuscator(h, 3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if ob.K() != 3 || ob.History() != h {
		t.Error("accessors wrong")
	}
}

func TestObfuscateColdStart(t *testing.T) {
	h := mustHistory(t, 10)
	ob, err := NewObfuscator(h, 3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// First query: empty history, no fakes possible.
	oq, delta := ob.Obfuscate("first query")
	if len(oq.Subqueries) != 1 || oq.Original() != "first query" {
		t.Errorf("cold start oq = %+v", oq)
	}
	if delta <= 0 {
		t.Errorf("delta = %d", delta)
	}
	if h.Len() != 1 {
		t.Errorf("history len = %d", h.Len())
	}
	// Second query: exactly k fakes drawn (with replacement from 1 entry).
	oq2, _ := ob.Obfuscate("second query")
	if len(oq2.Subqueries) != 4 {
		t.Errorf("warm oq has %d subqueries, want 4", len(oq2.Subqueries))
	}
	if oq2.Original() != "second query" {
		t.Errorf("Original = %q", oq2.Original())
	}
	for _, f := range oq2.Fakes() {
		if f != "first query" {
			t.Errorf("fake = %q", f)
		}
	}
}

func TestObfuscateQueryString(t *testing.T) {
	h := mustHistory(t, 10)
	h.Add("past one")
	h.Add("past two")
	ob, err := NewObfuscator(h, 2, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	oq, _ := ob.Obfuscate("my real query")
	joined := oq.Query()
	if !strings.Contains(joined, "my real query") {
		t.Errorf("Query() = %q missing original", joined)
	}
	if got := len(strings.Split(joined, " OR ")); got != 3 {
		t.Errorf("Query() has %d parts: %q", got, joined)
	}
	// Original recoverable by index.
	if oq.Subqueries[oq.OriginalIndex] != "my real query" {
		t.Error("OriginalIndex wrong")
	}
}

func TestObfuscateAddsToHistory(t *testing.T) {
	h := mustHistory(t, 10)
	ob, err := NewObfuscator(h, 1, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ob.Obfuscate(fmt.Sprintf("q%d", i))
	}
	if h.Len() != 5 {
		t.Errorf("history len = %d, want 5", h.Len())
	}
}

// The original's position must be (roughly) uniform — the property that
// prevents the engine from learning the original by position.
func TestObfuscatePositionUniform(t *testing.T) {
	h := mustHistory(t, 100)
	for i := 0; i < 50; i++ {
		h.Add(fmt.Sprintf("seed query %d", i))
	}
	ob, err := NewObfuscator(h, 3, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	const trials = 8000
	for i := 0; i < trials; i++ {
		oq, _ := ob.Obfuscate(fmt.Sprintf("real %d", i))
		counts[oq.OriginalIndex]++
	}
	for pos, c := range counts {
		frac := float64(c) / trials
		if frac < 0.20 || frac > 0.30 {
			t.Errorf("position %d frequency %f outside [0.20, 0.30]", pos, frac)
		}
	}
}

// Every fake must be a real past query — the paper's core design choice.
func TestObfuscateFakesAreRealPastQueries(t *testing.T) {
	h := mustHistory(t, 50)
	past := map[string]struct{}{}
	for i := 0; i < 30; i++ {
		q := fmt.Sprintf("past %d", i)
		h.Add(q)
		past[q] = struct{}{}
	}
	ob, err := NewObfuscator(h, 5, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		q := fmt.Sprintf("new %d", i)
		oq, _ := ob.Obfuscate(q)
		for _, f := range oq.Fakes() {
			if _, ok := past[f]; !ok {
				t.Fatalf("fake %q was never a past query", f)
			}
		}
		past[q] = struct{}{}
	}
}

func TestObfuscateDeterministicWithSeed(t *testing.T) {
	run := func() []string {
		h := mustHistory(t, 10)
		for i := 0; i < 5; i++ {
			h.Add(fmt.Sprintf("p%d", i))
		}
		ob, err := NewObfuscator(h, 2, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 10; i++ {
			oq, _ := ob.Obfuscate(fmt.Sprintf("q%d", i))
			out = append(out, oq.Query())
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("obfuscation not deterministic under fixed seed")
	}
}

func TestFilterResultsKeepsOriginalTopic(t *testing.T) {
	results := []Result{
		{URL: "u1", Title: "red sports car dealer", Snippet: "buy red sports car"},
		{URL: "u2", Title: "chicken soup recipe", Snippet: "easy chicken soup"},
		{URL: "u3", Title: "mortgage rates today", Snippet: "compare mortgage rates"},
	}
	kept := FilterResults("red sports car", []string{"chicken soup recipe", "mortgage rates"}, results)
	if len(kept) != 1 || kept[0].URL != "u1" {
		t.Errorf("kept = %+v", kept)
	}
}

func TestFilterResultsTieGoesToOriginal(t *testing.T) {
	// Result matches original and fake equally: Algorithm 2 keeps it
	// (score[Qu] = max).
	results := []Result{
		{URL: "u1", Title: "car boat", Snippet: ""},
	}
	kept := FilterResults("car", []string{"boat"}, results)
	if len(kept) != 1 {
		t.Errorf("tie should keep result, kept = %+v", kept)
	}
}

func TestFilterResultsDropsZeroScore(t *testing.T) {
	results := []Result{
		{URL: "u1", Title: "entirely unrelated", Snippet: "nothing in common"},
	}
	kept := FilterResults("quantum physics", []string{"knitting yarn"}, results)
	if len(kept) != 0 {
		t.Errorf("kept = %+v", kept)
	}
}

func TestFilterResultsNoFakes(t *testing.T) {
	results := []Result{
		{URL: "u1", Title: "red car", Snippet: "a car that is red"},
		{URL: "u2", Title: "unrelated", Snippet: "nope"},
	}
	kept := FilterResults("red car", nil, results)
	if len(kept) != 1 || kept[0].URL != "u1" {
		t.Errorf("kept = %+v", kept)
	}
}

func TestFilterResultsEmpty(t *testing.T) {
	if kept := FilterResults("q", []string{"f"}, nil); len(kept) != 0 {
		t.Errorf("kept = %+v", kept)
	}
}

func TestStripRedirects(t *testing.T) {
	tests := []struct{ in, want string }{
		{"http://www.bing.com/ck?u=http%3A%2F%2Fexample.com%2Fpage&sig=xyz", "http://example.com/page"},
		{"http://g.com/url?url=http%3A%2F%2Ftarget.org", "http://target.org"},
		{"http://plain.example.com/page", "http://plain.example.com/page"},
		{"http://x.com/redirect?u=http://direct.com", "http://direct.com"},
		{"http://x.com/ck?sig=abc", "http://x.com/ck?sig=abc"}, // no target param
	}
	for _, tt := range tests {
		if got := StripRedirects(tt.in); got != tt.want {
			t.Errorf("StripRedirects(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestDecodePercent(t *testing.T) {
	tests := []struct{ in, want string }{
		{"a%20b", "a b"},
		{"%2F%2f", "//"},
		{"%", "%"},
		{"%zz", "%zz"},
		{"plain", "plain"},
	}
	for _, tt := range tests {
		if got := decodePercent(tt.in); got != tt.want {
			t.Errorf("decodePercent(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func BenchmarkObfuscate(b *testing.B) {
	h, err := NewHistory(100000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		h.Add(fmt.Sprintf("past query number %d", i))
	}
	ob, err := NewObfuscator(h, 3, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.Obfuscate("benchmark query text")
	}
}

// BenchmarkFilterResults measures Algorithm 2 on the paper workload's list
// shape: the engine's merged SearchOR list for k+1 = 4 dataset queries x 20
// corpus results. "identical-text" keeps the old synthetic list — 80 results
// sharing one title and one snippet, which no engine returns and which
// flatters anything that remembers a word it has seen (behind a stem memo
// it reads a quarter of the allocations corpus text does).
func BenchmarkFilterResults(b *testing.B) {
	b.Run("corpus", func(b *testing.B) {
		cases := corpusCases(b, 16, 3, 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cases[i%len(cases)]
			FilterResults(c.original, c.fakes, c.results)
		}
	})
	b.Run("identical-text", func(b *testing.B) {
		results := make([]Result, 80)
		for i := range results {
			results[i] = Result{
				URL:     fmt.Sprintf("http://site%d.com", i),
				Title:   "assorted topical result title words",
				Snippet: "some snippet text with several words in it for scoring",
			}
		}
		fakes := []string{"chicken recipe", "mortgage rates", "playoff scores"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			FilterResults("topical result words", fakes, results)
		}
	})
}
