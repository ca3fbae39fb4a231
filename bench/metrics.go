package main

import (
	"encoding/json"

	"xsearch/internal/obs"
)

// metricDef declares one metric. This table is the single source of the
// metric list: BENCHMARK.json is generated from it (-manifest) and the
// test asserts the committed file still matches.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression.
	Bound float64
	// Moves says which end-to-end metric, on which workload, a per-layer
	// metric is expected to move (README only; the contract's
	// BENCHMARK.json schema has no field for it).
	Moves string
}

// endToEnd is what a user of the system sees; same names on every
// workload. Time-based bounds are wider than the issue's first proposal:
// they are the measured same-code spread on the 2-vCPU shared host times
// three (see README "Measured spread").
var endToEnd = []metricDef{
	{Name: "search_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "search_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_query", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.07},
	{Name: "epc_heap_kb", Unit: "KB", Better: "lower", Bound: 0.17},
	{Name: "connect_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "success_ratio", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		lo = "lower"
		hi = "higher"
	)
	defs := []metricDef{
		{Name: "broker.search_us", Unit: "us", Better: lo, Moves: "search_p50_us, cpu_us_per_query on edge, repeat"},
		{Name: "broker.self_us", Unit: "us", Better: lo, Moves: "search_p50_us, cpu_us_per_query on edge, repeat (<= 2% of paper)"},
		{Name: "broker.connect_us", Unit: "us", Better: lo, Moves: "connect_p50_us on all"},
		{Name: "securechannel.seal_ns", Unit: "ns", Better: lo, Moves: "search_p50_us on edge, repeat"},
		{Name: "securechannel.open_ns", Unit: "ns", Better: lo, Moves: "search_p50_us on edge, repeat"},
		{Name: "securechannel.handshake_us", Unit: "us", Better: lo, Moves: "connect_p50_us on all"},
		{Name: "attestation.quote_verify_us", Unit: "us", Better: lo, Moves: "connect_p50_us on all; nothing else"},
		{Name: "mux.call_us", Unit: "us", Better: lo, Moves: "throughput_qps, search_p50_us on edge only"},
		{Name: "mux.frame_codec_ns", Unit: "ns", Better: lo, Moves: "throughput_qps on edge only"},
		{Name: "mux.call_allocs", Unit: "count", Better: lo, Moves: "allocs_per_query on edge only"},
		{Name: "fleet.route_ns", Unit: "ns", Better: lo, Moves: "search_p50_us on edge only (0 elsewhere: no gateway)"},
		{Name: "fleet.secure_us", Unit: "us", Better: lo, Moves: "search_p50_us, throughput_qps on edge only"},
		{Name: "fleet.self_us", Unit: "us", Better: lo, Moves: "search_p50_us, throughput_qps on edge only"},
		{Name: "proxy.secure_us", Unit: "us", Better: lo, Moves: "search_p50_us on all"},
		{Name: "proxy.serve_query_us", Unit: "us", Better: lo, Moves: "search_p50_us on all"},
		{Name: "proxy.channel_us", Unit: "us", Better: lo, Moves: "search_p50_us on edge, repeat"},
		{Name: "proxy.self_us", Unit: "us", Better: lo, Moves: "cpu_us_per_query on all four, largest share on repeat, edge"},
		{Name: "proxy.serve_query_allocs", Unit: "count", Better: lo, Moves: "allocs_per_query on all four"},
		{Name: "proxy.ecalls_per_query", Unit: "count", Better: lo, Moves: "throughput_qps, search_p99_us on pipeline only"},
		{Name: "proxy.ocalls_per_query", Unit: "count", Better: lo, Moves: "cpu_us_per_query on paper, pipeline"},
		{Name: "proxy.pool_reuse_ratio", Unit: "ratio", Better: hi, Moves: "search_p50_us on paper, pipeline"},
		{Name: "proxy.batch_occupancy_p50", Unit: "count", Better: hi, Moves: "throughput_qps, search_p99_us on pipeline only"},
		{Name: "proxy.batches_per_query", Unit: "count", Better: lo, Moves: "throughput_qps on pipeline only"},
		{Name: "proxy.local_hit_ratio", Unit: "ratio", Better: hi, Moves: "every metric on repeat"},
		{Name: "proxy.errors", Unit: "count", Better: lo, Moves: "success_ratio on all"},
	}
	for _, stage := range obs.StageNames {
		defs = append(defs, metricDef{Name: "proxy.stage_" + stage + "_us", Unit: "us", Better: lo,
			Moves: "cross-check of the outside view on pipeline (0 elsewhere: observability off)"})
	}
	return append(defs,
		metricDef{Name: "enclave.ecall_ns", Unit: "ns", Better: lo, Moves: "throughput_qps on edge"},
		metricDef{Name: "enclave.ecall_priced_ns", Unit: "ns", Better: lo, Moves: "throughput_qps on pipeline, via proxy.ecalls_per_query"},
		metricDef{Name: "core.obfuscate_us", Unit: "us", Better: lo, Moves: "search_p50_us on edge"},
		metricDef{Name: "core.filter_us", Unit: "us", Better: lo, Moves: "every time metric on paper, pipeline; none on repeat, edge"},
		metricDef{Name: "core.filter_allocs", Unit: "count", Better: lo, Moves: "allocs_per_query, alloc_kb_per_query on paper, pipeline"},
		metricDef{Name: "core.filter_kept_ratio", Unit: "ratio", Better: hi, Moves: "useful work per fetched result, about 1/(k+1)"},
		metricDef{Name: "core.cache_get_ns", Unit: "ns", Better: lo, Moves: "search_p50_us on repeat"},
		metricDef{Name: "core.cache_put_ns", Unit: "ns", Better: lo, Moves: "cpu_us_per_query on pipeline"},
		metricDef{Name: "core.cache_hit_ratio", Unit: "ratio", Better: hi, Moves: "every metric on repeat"},
		metricDef{Name: "core.history_fill", Unit: "ratio", Better: hi, Moves: "privacy floor: must read 1"},
		metricDef{Name: "answer.query_us", Unit: "us", Better: lo, Moves: "search_p50_us, cpu_us_per_query on repeat only"},
		metricDef{Name: "answer.insert_us", Unit: "us", Better: lo, Moves: "repeat warm-up only (harness.warmup_s)"},
		metricDef{Name: "answer.hit_ratio", Unit: "ratio", Better: hi, Moves: "every metric on repeat"},
		metricDef{Name: "searchengine.search_us", Unit: "us", Better: lo, Moves: "substrate: subtract from cpu_us_per_query on paper, pipeline"},
		metricDef{Name: "searchengine.http_us", Unit: "us", Better: lo, Moves: "substrate: subtract from search_p50_us on paper, pipeline"},
		metricDef{Name: "searchengine.reqs_per_query", Unit: "count", Better: lo, Moves: "upstream cost and exposure: 1 on paper, pipeline; about 0 on repeat; 0 on edge"},
		metricDef{Name: "textutil.terms_ns", Unit: "ns", Better: lo, Moves: "via core.filter_us, answer.* on paper, pipeline"},
		metricDef{Name: "harness.calib_ns", Unit: "ns", Better: lo, Moves: "none: the calibration loop's quiet reading, the run's measure of host speed"},
		metricDef{Name: "harness.host_slowdown", Unit: "ratio", Better: lo, Moves: "none: the calibration loop against its nominal time; end-to-end times are divided by it"},
		metricDef{Name: "harness.trace_overhead_pct", Unit: "%", Better: lo, Moves: "none: cost of recording spans"},
		metricDef{Name: "harness.gc_cpu_pct", Unit: "%", Better: lo, Moves: "none: explains cpu_us_per_query"},
		metricDef{Name: "harness.peak_rss_mb", Unit: "MB", Better: lo, Moves: "none"},
		metricDef{Name: "harness.warmup_s", Unit: "s", Better: lo, Moves: "none: untimed fill of history, cache and index"},
	)
}

// manifest renders BENCHMARK.json, with exactly the keys the benchmark
// contract names.
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2eEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
