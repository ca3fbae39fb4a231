package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/metrics"
)

func TestStagesNilSafe(t *testing.T) {
	var s *Stages
	s.Record(StageReply, time.Millisecond) // must not panic
	s.Since(StageReply, time.Now())
	if snap := s.Snapshot(); snap != nil {
		t.Fatalf("nil Stages snapshot = %v, want nil", snap)
	}
}

func TestStagesSnapshotOmitsEmptyStages(t *testing.T) {
	s := NewStages()
	if snap := s.Snapshot(); snap != nil {
		t.Fatalf("empty Stages snapshot = %v, want nil", snap)
	}
	s.Record(StageFetch, 2*time.Millisecond)
	s.Record(StageFetch, 3*time.Millisecond)
	snap := s.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d stages, want 1: %v", len(snap), snap)
	}
	if snap[StageFetch].Count != 2 {
		t.Fatalf("fetch count = %d, want 2", snap[StageFetch].Count)
	}
	// Unknown stage names must be rejected, not silently create a new
	// series — the closed set is the cardinality guarantee.
	s.Record("totally-new-stage", time.Millisecond)
	if got := len(s.Snapshot()); got != 1 {
		t.Fatalf("unknown stage created a series: %d stages", got)
	}
}

func TestMergeStagesSumsCountsTakesWorstTails(t *testing.T) {
	a := map[string]metrics.LatencySnapshot{
		StageReply: {Count: 10, P50: 5, P95: 50, P99: 70, Mean: 10, Max: 100},
		StageFetch: {Count: 3, P95: 9},
	}
	b := map[string]metrics.LatencySnapshot{
		StageReply: {Count: 4, P50: 8, P95: 20, P99: 90, Mean: 12, Max: 60},
		StageProbe: {Count: 1, P95: 2},
	}
	got := MergeStages(nil, a)
	got = MergeStages(got, b)
	r := got[StageReply]
	if r.Count != 14 {
		t.Errorf("merged reply count = %d, want 14 (sum)", r.Count)
	}
	if r.P50 != 8 || r.P95 != 50 || r.P99 != 90 || r.Mean != 12 || r.Max != 100 {
		t.Errorf("merged reply tails = %+v, want worst-shard maxima", r)
	}
	if got[StageFetch].Count != 3 || got[StageProbe].Count != 1 {
		t.Errorf("stages present in only one side must carry through: %v", got)
	}
}

func TestLogOverflowOrderingAndSeq(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 20; i++ {
		l.Append(Event{Type: EvBreakerOpen, Shard: i})
	}
	if l.Len() != 8 {
		t.Fatalf("ring holds %d events, want 8", l.Len())
	}
	snap := l.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot has %d events, want 8", len(snap))
	}
	// Oldest-first: the survivors are appends 13..20 (Seq stamps from 1).
	for i, ev := range snap {
		wantSeq := uint64(13 + i)
		if ev.Seq != wantSeq {
			t.Errorf("snap[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Shard != 12+i {
			t.Errorf("snap[%d].Shard = %d, want %d", i, ev.Shard, 12+i)
		}
		if ev.TimeNs == 0 {
			t.Errorf("snap[%d] missing timestamp", i)
		}
	}
}

func TestLogNilSafe(t *testing.T) {
	var l *Log
	l.Append(Event{Type: EvKill})
	if l.Len() != 0 {
		t.Fatal("nil log Len != 0")
	}
	if l.Snapshot() != nil {
		t.Fatal("nil log Snapshot != nil")
	}
}

func TestLogConcurrentAppendSnapshot(t *testing.T) {
	l := NewLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Append(Event{Type: EvScaleDecision, Shard: w})
				if i%17 == 0 {
					snap := l.Snapshot()
					for j := 1; j < len(snap); j++ {
						if snap[j].Seq <= snap[j-1].Seq {
							t.Errorf("snapshot seqs out of order: %d then %d",
								snap[j-1].Seq, snap[j].Seq)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 64 {
		t.Fatalf("ring holds %d, want full 64", l.Len())
	}
}

func TestLogStreamEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(4, WithStream(&buf))
	l.Append(Event{Type: EvScaleUp, Shard: 3, Shards: 4})
	l.Append(Event{Type: EvDrain, Shard: 1, Reason: "sealed handoff"})
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %d not JSON: %v: %q", lines, err, sc.Text())
		}
		if ev.Seq == 0 || ev.Type == "" {
			t.Errorf("stream line %d incomplete: %+v", lines, ev)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("stream carried %d lines, want 2", lines)
	}
}

// TestPromWriterGroupsFamilies drives the writer the way the fleet
// endpoint does — the same families re-emitted once per shard,
// interleaved with other families — and asserts the flushed text obeys
// the exposition format: each family is one contiguous block introduced
// by exactly one HELP and one TYPE line.
func TestPromWriterGroupsFamilies(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	for shard := 0; shard < 3; shard++ {
		lbl := fmt.Sprintf("%d", shard)
		pw.Counter("xsearch_requests_total", "Requests.", float64(10+shard), "shard", lbl)
		pw.Gauge("xsearch_sessions_active", "Sessions.", float64(shard), "shard", lbl)
		pw.StageSummaries("xsearch_latency_seconds", "Latency.", map[string]metrics.LatencySnapshot{
			StageReply: {Count: 5, P50: time.Millisecond, Mean: time.Millisecond}}, "shard", lbl)
	}
	if err := pw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	text := buf.String()

	type famState struct{ help, typ, samples int }
	fams := map[string]*famState{}
	closed := map[string]bool{}
	var current string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var name string
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			name = strings.Fields(line)[2]
		} else {
			name = strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
			// Summary series append _sum/_count to the family name.
			for _, suf := range []string{"_sum", "_count"} {
				name = strings.TrimSuffix(name, suf)
			}
		}
		// Contiguity: once the output moves past a family, that family
		// must never reappear — interleaved blocks break scrapers.
		if name != current {
			if closed[name] {
				t.Fatalf("family %q reappears after %q:\n%s", name, current, text)
			}
			if current != "" {
				closed[current] = true
			}
			current = name
		}
		st := fams[name]
		if st == nil {
			st = &famState{}
			fams[name] = st
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			st.help++
		case strings.HasPrefix(line, "# TYPE "):
			st.typ++
		default:
			st.samples++
		}
	}
	for name, st := range fams {
		if st.help != 1 || st.typ != 1 {
			t.Errorf("family %q: %d HELP, %d TYPE lines, want exactly 1 each",
				name, st.help, st.typ)
		}
	}
	for _, want := range []string{
		"xsearch_requests_total", "xsearch_sessions_active", "xsearch_latency_seconds"} {
		if fams[want] == nil || fams[want].samples == 0 {
			t.Errorf("family %q missing from output:\n%s", want, text)
		}
	}
	// Each family's shard label values must all be present.
	if got := strings.Count(text, `xsearch_requests_total{shard=`); got != 3 {
		t.Errorf("requests_total has %d shard series, want 3:\n%s", got, text)
	}
	// Quantile labels render the closed set in seconds.
	for _, q := range []string{`quantile="0.5"`, `quantile="0.99"`, `quantile="0.999"`} {
		if !strings.Contains(text, q) {
			t.Errorf("summary missing %s:\n%s", q, text)
		}
	}
	if !strings.Contains(text, "xsearch_latency_seconds_count{") {
		t.Errorf("summary missing _count series:\n%s", text)
	}
	// Flush resets: a second flush with no samples writes nothing.
	buf.Reset()
	if err := pw.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("second flush re-emitted %d bytes: %q", buf.Len(), buf.String())
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Counter("x_total", "h", 1, "upstream", `eng"a\b`+"\n")
	if err := pw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !strings.Contains(buf.String(), `upstream="eng\"a\\b\n"`) {
		t.Errorf("label not escaped: %q", buf.String())
	}
}
