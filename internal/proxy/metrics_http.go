package proxy

import (
	"encoding/json"
	"net/http"

	"xsearch/internal/obs"
)

// This file renders the proxy's Stats surface in the Prometheus text
// exposition format and serves the structured event log. Both endpoints
// obey the observability layer's two hard rules (see internal/obs):
// aggregates only, and constant cardinality — every label value below
// comes from a closed set (the fixed stage names, the configured engine
// hosts, a fleet-assigned shard index). Nothing here may ever touch a
// query or result string.

// WriteMetrics renders a Stats snapshot as Prometheus metric families
// onto w. The extra labels (k,v pairs) are appended to every sample; the
// fleet gateway uses them to stamp a shard index on each shard's series.
func WriteMetrics(w *obs.PromWriter, s Stats, labels ...string) {
	w.Counter("xsearch_requests_total", "Secure queries accepted.", float64(s.Requests), labels...)
	w.Counter("xsearch_handshakes_total", "Attested channel handshakes.", float64(s.Handshakes), labels...)
	w.Counter("xsearch_errors_total", "Requests that ended in an error.", float64(s.Errors), labels...)

	w.Counter("xsearch_enclave_ecalls_total", "Enclave boundary entries.", float64(s.Enclave.ECalls), labels...)
	w.Counter("xsearch_enclave_ocalls_total", "Enclave boundary exits.", float64(s.Enclave.OCalls), labels...)
	w.Gauge("xsearch_enclave_heap_bytes", "Enclave heap (history + cache + index).", float64(s.Enclave.HeapBytes), labels...)
	w.Gauge("xsearch_enclave_epc_used_bytes", "Platform EPC in use.", float64(s.Enclave.EPCUsed), labels...)
	w.Gauge("xsearch_enclave_epc_limit_bytes", "Platform EPC budget.", float64(s.Enclave.EPCLimit), labels...)
	w.Counter("xsearch_enclave_page_faults_total", "EPC paging events.", float64(s.Enclave.PageFaults), labels...)

	w.Gauge("xsearch_history_len", "Obfuscation-history window occupancy.", float64(s.HistoryLen), labels...)
	w.Gauge("xsearch_history_bytes", "Obfuscation-history EPC charge.", float64(s.HistoryB), labels...)

	w.Gauge("xsearch_pool_idle", "Idle keep-alive engine connections.", float64(s.PoolIdle), labels...)
	w.Counter("xsearch_pool_reuses_total", "Checkouts served by a pooled connection.", float64(s.PoolReuses), labels...)
	w.Counter("xsearch_pool_dials_total", "Checkouts that dialed fresh.", float64(s.PoolDials), labels...)

	w.Gauge("xsearch_cache_bytes", "Result-cache EPC charge.", float64(s.CacheB), labels...)
	w.Counter("xsearch_cache_hits_total", "Result-cache hits.", float64(s.CacheHits), labels...)
	w.Counter("xsearch_cache_misses_total", "Result-cache misses.", float64(s.CacheMisses), labels...)
	w.Gauge("xsearch_index_docs", "Answer-index documents.", float64(s.IndexDocs), labels...)
	w.Gauge("xsearch_index_bytes", "Answer-index EPC charge.", float64(s.IndexB), labels...)
	w.Counter("xsearch_index_hits_total", "Answer-index hits.", float64(s.IndexHits), labels...)
	w.Counter("xsearch_index_misses_total", "Answer-index misses.", float64(s.IndexMisses), labels...)

	w.Counter("xsearch_coalesce_shared_total", "Requests that rode another's flight.", float64(s.CoalesceShared), labels...)
	w.Counter("xsearch_coalesce_led_total", "Requests that led a flight.", float64(s.CoalesceLed), labels...)

	w.Counter("xsearch_async_submitted_total", "Switchless fetch submissions.", float64(s.AsyncSubmitted), labels...)
	w.Counter("xsearch_async_completed_total", "Switchless fetch completions serviced.", float64(s.AsyncCompleted), labels...)
	w.Gauge("xsearch_pipeline_in_flight", "Currently staged pipeline requests.", float64(s.PipelineInFlight), labels...)
	w.Counter("xsearch_batches_total", "Vectorized ecall crossings.", float64(s.BatchesSubmitted), labels...)

	if s.LatencyCount > 0 {
		// Stats keeps three quantiles and the mean; only those are exported.
		w.Summary("xsearch_request_latency_seconds", "End-to-end query latency.", s.LatencyCount, s.LatencyMean,
			[]obs.Quantile{{Q: "0.5", V: s.LatencyP50}, {Q: "0.95", V: s.LatencyP95}, {Q: "0.99", V: s.LatencyP99}}, labels...)
	}
	w.StageSummaries("xsearch_stage_latency_seconds", "Trusted-side per-stage latency.", s.Stages, labels...)
	w.Gauge("xsearch_events_logged", "Structured event-ring occupancy.", float64(s.EventsLogged), labels...)

	// Per-upstream series: the host label set is exactly the configured
	// engine list — closed by construction.
	for _, u := range s.Upstreams {
		ul := append(append([]string{}, labels...), "upstream", u.Host)
		w.Counter("xsearch_upstream_served_total", "Requests this upstream answered.", float64(u.Served), ul...)
		w.Counter("xsearch_upstream_failures_total", "Failed dials/exchanges.", float64(u.Failures), ul...)
		cooling := 0.0
		if u.CoolingDown {
			cooling = 1.0
		}
		w.Gauge("xsearch_upstream_breaker_open", "1 while the circuit breaker excludes this upstream.", cooling, ul...)
	}
}

// handleMetrics serves GET /metrics: the full Stats surface in Prometheus
// text format. Same staleness contract as /stats (assembled from
// independent atomics, each field internally consistent).
func (p *Proxy) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	pw := obs.NewPromWriter(w)
	WriteMetrics(pw, p.Stats())
	_ = pw.Flush()
}

// handleEvents serves GET /events: the ring-buffered structured event log,
// oldest first, as a JSON array. With event logging off it serves an
// empty array, keeping the endpoint's shape constant.
func (p *Proxy) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	evs := p.trusted.events.Snapshot()
	if evs == nil {
		evs = []obs.Event{}
	}
	_ = json.NewEncoder(w).Encode(evs)
}
