package proxy

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/searchengine"
)

// Path equivalence as a property: the same seed and the same serial query
// stream must look identical — to the engine and to the client — whichever
// configuration of the request stage serves it (blocking, async, async +
// batching, async + in-enclave TLS). ROADMAP aim 3: "the same k+1 shape on
// sync/async/batched/hedged/TLS paths".

// equivEngine fronts ONE searchengine.Engine with a plain and a TLS
// listener. The engine's own QueryLog gives the engine-visible queries;
// the handler additionally records each request's count= parameter, which
// the log does not keep.
type equivEngine struct {
	engine    *searchengine.Engine
	plainAddr string
	tlsAddr   string
	rootsPEM  []byte

	mu     sync.Mutex
	counts []int
}

func newEquivEngine(t *testing.T) *equivEngine {
	t.Helper()
	ee := &equivEngine{engine: searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 10, Seed: 1})))}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		count, err := strconv.Atoi(r.URL.Query().Get("count"))
		if err != nil {
			http.Error(w, "invalid count", http.StatusBadRequest)
			return
		}
		ee.mu.Lock()
		ee.counts = append(ee.counts, count)
		ee.mu.Unlock()
		results, err := ee.engine.Search("proxy", r.URL.Query().Get("q"), count)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(results)
	})
	cert, pem, err := searchengine.GenerateSelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ee.rootsPEM = pem
	listen := func(wrap func(net.Listener) net.Listener) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = srv.Serve(wrap(ln)) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		return ln.Addr().String()
	}
	ee.plainAddr = listen(func(ln net.Listener) net.Listener { return ln })
	ee.tlsAddr = listen(func(ln net.Listener) net.Listener {
		return tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})
	})
	return ee
}

// mark returns the current log positions; since returns what the engine
// saw after a mark, as "count|query" lines in arrival order.
func (ee *equivEngine) mark() int { return len(ee.engine.QueryLog()) }

func (ee *equivEngine) since(mark int) []string {
	log := ee.engine.QueryLog()[mark:]
	ee.mu.Lock()
	counts := append([]int(nil), ee.counts[mark:]...)
	ee.mu.Unlock()
	out := make([]string, len(log))
	for i, q := range log {
		out[i] = fmt.Sprintf("%d|%s", counts[i], q.Query)
	}
	return out
}

type equivStep struct {
	secure bool
	query  string
	count  int  // secure only; 0 / >100 clamp to ResultsPerList
	bogus  bool // secure only: an unknown session id
}

// equivStream is serial on purpose: with one request in flight at a time
// the obfuscator's seeded draws, the history and the cache evolve in the
// same order on every configuration, so outputs are comparable exactly.
var equivStream = []equivStep{
	{query: "chicken casserole recipe"},
	{query: "mortgage refinance rates"},
	{secure: true, query: "football playoffs scores"},
	{secure: true, query: "flights airfare hotel", count: 5},
	{query: "chicken casserole recipe"}, // exact repeat: served by the cache
	{query: ""},                         // rejected before obfuscation
	{query: "   "},
	{secure: true, query: "lyrics album band concert", count: 0},
	{secure: true, query: "attorney lawsuit divorce", count: 101},
	{secure: true, query: "flights airfare hotel", count: 5}, // secure repeat
	{secure: true, query: "garden plants seeds", bogus: true},
	{query: "laptop wireless router"},
	{secure: true, query: "horoscope zodiac aries", count: 100},
	{query: "dog puppy breed kennel"},
}

type equivRun struct {
	outcomes []string // client-visible, one per step
	engine   []string // engine-visible, one per upstream request
	stats    string   // the counters that must agree
}

func runEquivStream(t *testing.T, ee *equivEngine, mutate func(*Config)) equivRun {
	t.Helper()
	cfg := Config{
		K:              2,
		Seed:           7,
		ResultsPerList: 10,
		CacheBytes:     1 << 20,
		IndexBytes:     1 << 20,
		Engines:        []EngineSpec{{Host: ee.plainAddr}},
	}
	mutate(&cfg)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	channel, session, err := churnClient(p)
	if err != nil {
		t.Fatal(err)
	}
	mark := ee.mark()
	var run equivRun
	render := func(results any, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		out, _ := json.Marshal(results)
		return string(out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, st := range equivStream {
		if !st.secure {
			run.outcomes = append(run.outcomes, render(p.ServeQuery(ctx, st.query)))
			continue
		}
		reqPT, err := json.Marshal(secureRequest{Query: st.query, Count: st.count})
		if err != nil {
			t.Fatal(err)
		}
		sid := session
		var record []byte
		if st.bogus {
			sid, record = "no-such-session", []byte("x")
		} else if record, err = channel.Seal(reqPT); err != nil {
			t.Fatal(err)
		}
		out, err := p.Secure(ctx, sid, record)
		if err != nil {
			run.outcomes = append(run.outcomes, render(nil, err))
			continue
		}
		respPT, err := channel.Open(out)
		if err != nil {
			t.Fatalf("open reply to %q: %v", st.query, err)
		}
		var sresp secureResponse
		if err := json.Unmarshal(respPT, &sresp); err != nil {
			t.Fatal(err)
		}
		if sresp.Err != "" {
			run.outcomes = append(run.outcomes, "sealed error: "+sresp.Err)
		} else {
			run.outcomes = append(run.outcomes, render(sresp.Results, nil))
		}
	}
	run.engine = ee.since(mark)
	s := p.Stats()
	run.stats = fmt.Sprintf("requests=%d errors=%d history=%d/%dB cache=%d/%dB hits=%d misses=%d index=%d/%dB hits=%d misses=%d coalesce=%d/%d",
		s.Requests, s.Errors, s.HistoryLen, s.HistoryB, s.CacheLen, s.CacheB, s.CacheHits, s.CacheMisses,
		s.IndexDocs, s.IndexB, s.IndexHits, s.IndexMisses, s.CoalesceShared, s.CoalesceLed)
	assertEPCInvariant(t, p)
	return run
}

func TestRequestPathsAreEquivalent(t *testing.T) {
	ee := newEquivEngine(t)
	configs := []struct {
		name   string
		mutate func(*Config)
	}{
		{"blocking", func(*Config) {}},
		{"async", func(c *Config) { c.AsyncOcalls = true }},
		{"async+batch", func(c *Config) { c.AsyncOcalls = true; c.BatchMax = 4 }},
		{"async+tls", func(c *Config) {
			c.AsyncOcalls = true
			c.Engines = []EngineSpec{{Host: ee.tlsAddr, RootsPEM: ee.rootsPEM}}
		}},
	}
	var ref equivRun
	for i, tc := range configs {
		run := runEquivStream(t, ee, tc.mutate)
		if i == 0 {
			ref = run
			checkEquivReference(t, run)
			continue
		}
		if len(run.outcomes) != len(ref.outcomes) {
			t.Fatalf("%s: %d outcomes, blocking has %d", tc.name, len(run.outcomes), len(ref.outcomes))
		}
		for j := range ref.outcomes {
			if run.outcomes[j] != ref.outcomes[j] {
				t.Errorf("%s step %d (%+v): client sees\n  %s\nblocking path gave\n  %s",
					tc.name, j, equivStream[j], run.outcomes[j], ref.outcomes[j])
			}
		}
		if got, want := strings.Join(run.engine, "\n"), strings.Join(ref.engine, "\n"); got != want {
			t.Errorf("%s: engine-visible request log differs from the blocking path's:\n%s\n--- blocking ---\n%s", tc.name, got, want)
		}
		if run.stats != ref.stats {
			t.Errorf("%s: counters\n  %s\nblocking path gave\n  %s", tc.name, run.stats, ref.stats)
		}
	}
}

// checkEquivReference pins what the reference (blocking) run itself must
// look like, so the cross-config comparison cannot pass on a stream that
// degenerated (everything failing the same way everywhere).
func checkEquivReference(t *testing.T, run equivRun) {
	t.Helper()
	const k = 2
	if len(run.engine) < 4 {
		t.Fatalf("only %d engine-bound requests: the stream no longer exercises the engine stage\n%s",
			len(run.engine), strings.Join(run.engine, "\n"))
	}
	for i, line := range run.engine {
		count, query, _ := strings.Cut(line, "|")
		want := k + 1
		if i == 0 {
			want = 1 // cold history: the first query goes out bare
		}
		if got := len(strings.Split(query, " OR ")); got != want {
			t.Errorf("engine request %d carries %d sub-queries, want %d: %q", i, got, want, query)
		}
		if count != "10" && count != "5" && count != "100" {
			t.Errorf("engine request %d asked for count=%s: not a clamped value of the stream", i, count)
		}
	}
	for j, st := range equivStream {
		got := run.outcomes[j]
		switch {
		case !st.secure && strings.TrimSpace(st.query) == "":
			if got != "error: proxy: empty query" {
				t.Errorf("step %d: empty plain query gave %q", j, got)
			}
		case st.bogus:
			if !strings.Contains(got, "unknown session") {
				t.Errorf("step %d: unknown session gave %q", j, got)
			}
		default:
			if strings.HasPrefix(got, "error") || strings.HasPrefix(got, "sealed error") {
				t.Errorf("step %d (%q) failed: %s", j, st.query, got)
			}
		}
	}
	// The exact repeats must have been served without the engine.
	if run.outcomes[4] != run.outcomes[0] {
		t.Errorf("plain repeat differs from its first answer:\n  %s\n  %s", run.outcomes[4], run.outcomes[0])
	}
	if run.outcomes[9] != run.outcomes[3] {
		t.Errorf("secure repeat differs from its first answer:\n  %s\n  %s", run.outcomes[9], run.outcomes[3])
	}
}
