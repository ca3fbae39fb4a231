package answer

import (
	"strings"
	"testing"
	"time"

	"xsearch/internal/core"
)

// FuzzIndexInsertQuery fuzzes the answer tier with hostile result
// payloads — the URL/title/snippet fields cross the untrusted runtime on
// every fetch, so term bombs, huge snippets, empty and non-UTF-8 terms
// are all host-controlled input. Insert and Query must never panic, the
// byte accounting must stay exact (meter == Bytes() after every
// operation), the configured bound must hold, every charge must stay
// arena-quantized, a drained index must return every charged byte, and
// every query must get the answer the reference (queryRef) gives.
func FuzzIndexInsertQuery(f *testing.F) {
	f.Add("http://a", "chicken recipe", "oven baked chicken", "chicken recipe")
	// Term bomb: one term repeated far past any sane frequency.
	f.Add("http://b", strings.Repeat("bomb ", 500), strings.Repeat("bomb ", 2000), "bomb")
	// Huge snippet (oversize for the 4-arena bound below).
	f.Add("http://c", "t", strings.Repeat("x", 1<<16), "x")
	// Empty and whitespace-only fields.
	f.Add("", "", "", "")
	f.Add("http://d", "   ", "\t\n", "   ")
	// Unicode terms, combining marks, and invalid UTF-8.
	f.Add("http://e", "café naïve 東京 🦀", "מבחן тест", "café 東京")
	f.Add("http://f", "\xff\xfe broken", "ok\x00null", "\xff\xfe")
	// Stopword-only text (tokenizes to nothing).
	f.Add("http://g", "the and of", "a an the", "the")

	f.Fuzz(func(t *testing.T, url, title, snippet, query string) {
		m := &meter{limit: 4 * arenaQuantum}
		x, err := New(4*arenaQuantum, time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, rm := newRefIndex(4*arenaQuantum, time.Minute, 0), &meter{limit: 4 * arenaQuantum}
		now := time.Now()

		// Insert the hostile payload alongside a second doc derived from
		// it, so eviction and multi-doc scoring paths run too.
		docs := []core.Result{
			{URL: url, Title: title, Snippet: snippet},
			{URL: url + "/2", Title: snippet, Snippet: title},
		}
		x.Insert(docs, now, m.charge, m.free)
		ref.insert(docs, now, rm.charge, rm.free)
		requireBalanced(t, "after insert", x, m)
		requireSameState(t, "after insert", x, ref)
		if x.Bytes() > x.maxBytes {
			t.Fatalf("index bytes %d exceed bound %d", x.Bytes(), x.maxBytes)
		}
		if x.Bytes()%arenaQuantum != 0 {
			t.Fatalf("index bytes %d not arena-quantized", x.Bytes())
		}

		results, ok := x.Query(query, 10, now, m.free)
		want, wantOK := ref.queryRef(query, 10, now, rm.free)
		requireSameAnswer(t, "query", results, ok, want, wantOK)
		requireBalanced(t, "after query", x, m)
		if ok && len(results) == 0 {
			t.Fatal("hit with zero results")
		}
		// A query hit must never fabricate documents.
		if len(results) > x.Docs() {
			t.Fatalf("query returned %d results from %d docs", len(results), x.Docs())
		}

		// Re-inserting the same URL replaces, never double-charges.
		x.Insert(docs[:1], now, m.charge, m.free)
		ref.insert(docs[:1], now, rm.charge, rm.free)
		requireBalanced(t, "after reinsert", x, m)
		requireSameState(t, "after reinsert", x, ref)
		results, ok = x.Query(query, 10, now, m.free)
		want, wantOK = ref.queryRef(query, 10, now, rm.free)
		requireSameAnswer(t, "query after reinsert", results, ok, want, wantOK)

		// Snapshot/merge of hostile content must never corrupt the
		// accounting.
		m2 := &meter{limit: 4 * arenaQuantum}
		y, err := New(4*arenaQuantum, time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		y.Merge(x.Snapshot(), now, m2.charge, m2.free)
		requireBalanced(t, "after merge", y, m2)

		// Drain: expiring everything must return every charged byte.
		x.Insert(nil, now.Add(2*time.Minute), nil, m.free)
		requireBalanced(t, "after purge", x, m)
		if x.Docs() != 0 || x.Bytes() != 0 || m.balance() != 0 {
			t.Fatalf("drained index retains docs=%d bytes=%d meter=%d",
				x.Docs(), x.Bytes(), m.balance())
		}
	})
}
