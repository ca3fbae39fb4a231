package main

import (
	"fmt"
	"time"

	"xsearch/internal/searchengine"
)

// check is one line of the correctness gate.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// verify is the correctness gate, run on every invocation after the last
// query. Reply-level failures were counted as they happened (and are in
// success_ratio); the rest is read from the engine's log and the stack's
// own accounting.
func (r *runner) verify() []check {
	var out []check
	add := func(name string, ok bool, format string, args ...any) {
		c := check{Name: name, OK: ok}
		if !ok {
			c.Detail = fmt.Sprintf(format, args...)
		}
		out = append(out, c)
	}
	s, w := r.s, r.s.w

	failed, empty, unkept, maxPos := 0, 0, 0, 0
	var firstErr error
	for _, c := range r.callers {
		failed, empty, unkept = failed+c.failed, empty+c.empty, unkept+c.unkept
		maxPos = max(maxPos, c.pos)
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	add("replies decode", failed+r.traceFailed == 0, "%d of %d failed, first: %v", failed+r.traceFailed, r.attempted(), firstErr)
	add("replies non-empty", 100*empty <= r.attempted(), "%d of %d replies empty (the filter may drop every result, but not for 1%% of queries)", empty, r.attempted())
	add("results share a term with the query", unkept == 0, "%d checked replies hold a result Algorithm 2 would drop", unkept)
	add("brokers attest", r.connectFails == 0, "%d of %d connects failed", r.connectFails, r.connectsTried())
	add("stream not replayed", w.zipf || w.wrapOK || maxPos <= len(s.stream)+len(r.callers),
		"stream of %d queries exhausted at position %d", len(s.stream), maxPos)

	// The engine's view: after warm-up every query it logged is k+1
	// OR-joined sub-queries, and it logged exactly what the proxies say
	// they sent (plus the harness's own leaf fetches) - no other client
	// reached it.
	log := s.engine.QueryLog()
	misshapen, fromProxy := 0, 0
	for i, entry := range log {
		if entry.Source != "harness" {
			fromProxy++
		}
		if i >= r.engineLogWarm && len(searchengine.SplitOR(entry.Query)) != k+1 {
			misshapen++
		}
	}
	add("engine sees k+1 sub-queries", misshapen == 0, "%d of %d logged queries are not %d OR-joined sub-queries",
		misshapen, len(log)-r.engineLogWarm, k+1)

	stats := s.stats()
	if w.proxyConfig(r.sz).AsyncOcalls {
		// Completions of the last requests' close steps may still be
		// draining; give them a moment before reading the counters.
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if st := stats[0]; st.AsyncSubmitted == st.AsyncCompleted {
				break
			}
			time.Sleep(10 * time.Millisecond)
			stats = s.stats()
		}
		add("async submitted == completed", stats[0].AsyncSubmitted == stats[0].AsyncCompleted,
			"submitted %d, completed %d", stats[0].AsyncSubmitted, stats[0].AsyncCompleted)
	}
	var served uint64
	heapOK, errorsOK, coolOK, fillOK := true, true, true, true
	for _, st := range stats {
		heapOK = heapOK && st.Enclave.HeapBytes == st.HistoryB+st.CacheB+st.IndexB
		errorsOK = errorsOK && st.Errors == 0
		fillOK = fillOK && st.HistoryLen == r.sz.history
		for _, up := range st.Upstreams {
			served += up.Served
			coolOK = coolOK && !up.CoolingDown
		}
	}
	add("engine requests all came from the proxy", uint64(fromProxy) == served+uint64(r.harnessFetches),
		"engine logged %d, proxies sent %d, harness %d", fromProxy, served, r.harnessFetches)
	add("heap == history + cache + index", heapOK, "per-shard stats: %+v", stats)
	add("proxy error counters zero", errorsOK, "a shard reports Stats().Errors > 0")
	add("no upstream cooling down", coolOK, "an upstream's breaker is open")
	add("history window full", fillOK, "a shard's history holds fewer than %d queries", r.sz.history)
	return out
}
