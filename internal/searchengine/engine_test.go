package searchengine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func testEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	opts = append([]Option{WithCorpus(GenerateCorpus(CorpusConfig{DocsPerTopic: 10, Seed: 1}))}, opts...)
	return NewEngine(opts...)
}

func TestEngineSearchLogsQueries(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Search("10.0.0.1", "chicken recipe", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search("10.0.0.2", "mortgage rates", 5); err != nil {
		t.Fatal(err)
	}
	log := e.QueryLog()
	if len(log) != 2 {
		t.Fatalf("log has %d entries", len(log))
	}
	if log[0].Source != "10.0.0.1" || log[0].Query != "chicken recipe" {
		t.Errorf("log[0] = %+v", log[0])
	}
}

func TestEngineConcurrentSearch(t *testing.T) {
	e := testEngine(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := e.Search("src", "car repair OR chicken recipe", 5); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(e.QueryLog()); got != 400 {
		t.Errorf("log has %d entries, want 400", got)
	}
}

func TestServerEndToEnd(t *testing.T) {
	e := testEngine(t)
	srv := NewServer(e)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	client := NewClient(srv.URL())
	results, err := client.Search(context.Background(), "chicken recipe", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results over HTTP")
	}
	for _, r := range results {
		if r.URL == "" || r.Title == "" {
			t.Errorf("malformed result %+v", r)
		}
	}
	// The engine observed the query from the loopback source.
	log := e.QueryLog()
	if len(log) != 1 || log[0].Query != "chicken recipe" {
		t.Errorf("query log = %+v", log)
	}
	if !strings.HasPrefix(log[0].Source, "127.") {
		t.Errorf("source = %q, want loopback host", log[0].Source)
	}
}

func TestServerBadRequests(t *testing.T) {
	e := testEngine(t)
	srv := NewServer(e)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client := NewClient(srv.URL())
	if _, err := client.Search(context.Background(), "   ", 5); err == nil {
		t.Error("blank query should fail")
	}
	if _, err := client.Search(context.Background(), "ok", -1); err == nil {
		t.Error("negative count should fail")
	}
}

func TestURLQueryEscape(t *testing.T) {
	tests := []struct{ in, want string }{
		{"red car", "red+car"},
		{"a&b=c", "a%26b%3Dc"},
		{"plain", "plain"},
		{"café", "caf%C3%A9"},
	}
	for _, tt := range tests {
		if got := urlQueryEscape(tt.in); got != tt.want {
			t.Errorf("urlQueryEscape(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func BenchmarkIndexSearch(b *testing.B) {
	idx := BuildIndex(GenerateCorpus(DefaultCorpusConfig()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search("chicken recipe dinner", 20)
	}
}

func BenchmarkIndexSearchOR(b *testing.B) {
	idx := BuildIndex(GenerateCorpus(DefaultCorpusConfig()))
	q := "chicken recipe OR mortgage rates OR playoff scores OR flights paris"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchOR(q, 20)
	}
}
