package proxy

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"xsearch/internal/metrics"
	"xsearch/internal/obs"
)

// Tests for the proxy half of the observability layer: the Prometheus
// endpoint, the event log endpoint, and — the acceptance criterion — that
// the stage histograms cover the sync, async, and batched request paths.

func TestMetricsEndpointServesPromText(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.Observability = true })
	for i := 0; i < 3; i++ {
		plainSearch(t, st.proxy, queryN("metrics endpoint", i))
	}
	resp, err := http.Get(st.proxy.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", got, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE xsearch_requests_total counter",
		"# TYPE xsearch_request_latency_seconds summary",
		"# TYPE xsearch_stage_latency_seconds summary",
		`xsearch_stage_latency_seconds_count{stage="reply"}`,
		`xsearch_stage_latency_seconds_count{stage="obfuscate"}`,
		"xsearch_enclave_heap_bytes",
		"xsearch_history_len",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// The request-latency family exports what Stats holds and nothing it
	// would have to make up: p50/p95/p99, a _sum the mean backs (so
	// rate(_sum)/rate(_count) is the average, not 0), no p90 or p99.9.
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "xsearch_request_latency_seconds") {
			continue
		}
		if strings.Contains(line, `quantile="0.9"`) || strings.Contains(line, `quantile="0.999"`) {
			t.Errorf("fabricated quantile exported: %s", line)
		}
		if v, ok := strings.CutPrefix(line, "xsearch_request_latency_seconds_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
	}
	if sum <= 0 {
		t.Errorf("xsearch_request_latency_seconds_sum = %v after served queries, want > 0", sum)
	}
}

func TestEventsEndpointServesJSON(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.Observability = true })
	plainSearch(t, st.proxy, "events endpoint probe")
	resp, err := http.Get(st.proxy.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var evs []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("/events is not a JSON event array: %v", err)
	}
}

// TestMetricsWithoutObservability: /metrics stays useful with the layer
// off (the base Stats surface), but carries no stage series, and /events
// serves an empty array rather than an error.
func TestMetricsWithoutObservability(t *testing.T) {
	st := newTestStack(t, nil)
	plainSearch(t, st.proxy, "no obs metrics")
	resp, err := http.Get(st.proxy.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, "xsearch_requests_total") {
		t.Errorf("base metrics missing with obs off:\n%s", text)
	}
	if strings.Contains(text, "xsearch_stage_latency_seconds") {
		t.Errorf("stage series present with obs off:\n%s", text)
	}
	resp, err = http.Get(st.proxy.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var evs []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("/events with obs off: %v", err)
	}
	if len(evs) != 0 {
		t.Errorf("obs off but %d events", len(evs))
	}
}

// TestStageCoverageAcrossPaths drives the sync, async, and batched
// request paths and asserts each records its expected stage set — the
// histograms must describe the whole hot path, not just one engine mode.
func TestStageCoverageAcrossPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   []string
	}{
		{
			name:   "sync",
			mutate: func(c *Config) { c.Observability = true },
			want: []string{obs.StageObfuscate, obs.StageProbe, obs.StageFetch,
				obs.StageFilter, obs.StageReply},
		},
		{
			name: "async",
			mutate: func(c *Config) {
				c.Observability = true
				c.AsyncOcalls = true
				c.PipelineDepth = 8
			},
			want: []string{obs.StageAdmit, obs.StageObfuscate, obs.StageProbe,
				obs.StageFetch, obs.StageResume, obs.StageFilter, obs.StageReply},
		},
		{
			name: "batched",
			mutate: func(c *Config) {
				c.Observability = true
				c.AsyncOcalls = true
				c.PipelineDepth = 8
				c.BatchMax = 4
			},
			want: []string{obs.StageAdmit, obs.StageObfuscate, obs.StageProbe,
				obs.StageSubmit, obs.StageFetch, obs.StageResume,
				obs.StageFilter, obs.StageReply},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newTestStack(t, tc.mutate)
			for i := 0; i < 8; i++ {
				plainSearch(t, st.proxy, queryN("stage coverage "+tc.name, i))
			}
			stages := st.proxy.StageSnapshots()
			for _, stage := range tc.want {
				if stages[stage].Count == 0 {
					t.Errorf("%s path never recorded stage %q; covered: %v",
						tc.name, stage, covered(stages))
				}
			}
		})
	}
}

// covered lists the stages a snapshot actually holds, in pipeline order.
func covered(m map[string]metrics.LatencySnapshot) []string {
	var out []string
	for _, name := range obs.StageNames {
		if m[name].Count > 0 {
			out = append(out, name)
		}
	}
	return out
}

// TestStageSnapshotsNilWithoutObservability: a proxy built without the
// layer pays nothing and exposes nothing.
func TestStageSnapshotsNilWithoutObservability(t *testing.T) {
	st := newTestStack(t, nil)
	plainSearch(t, st.proxy, "zero cost path")
	if got := st.proxy.StageSnapshots(); got != nil {
		t.Errorf("StageSnapshots with obs off = %v, want nil", got)
	}
	if st.proxy.trusted.events.Len() != 0 {
		t.Errorf("event log live with obs off")
	}
}

// TestEventLogSizeAloneEnablesRing: WithEventLog-style config (a sized
// EventLog alone) enables the ring without the stage tracing.
func TestEventLogSizeAloneEnablesRing(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.EventLog = obs.NewLog(16) })
	plainSearch(t, st.proxy, "ring only")
	if st.proxy.trusted.events == nil {
		t.Fatal("EventLog set but no ring")
	}
	if got := st.proxy.StageSnapshots(); got != nil {
		t.Errorf("stage tracing on without Observability: %v", got)
	}
}

func TestPprofGatedOnObservability(t *testing.T) {
	on := newTestStack(t, func(c *Config) { c.Observability = true })
	resp, err := http.Get(on.proxy.URL() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with obs on: status %d", resp.StatusCode)
	}
	off := newTestStack(t, nil)
	resp, err = http.Get(off.proxy.URL() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served with obs off")
	}
}

func TestStatsContentType(t *testing.T) {
	st := newTestStack(t, nil)
	resp, err := http.Get(st.proxy.URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/stats Content-Type = %q", ct)
	}
}
