package fleet

import (
	"encoding/json"
	"net/http"
	"strconv"

	"xsearch/internal/obs"
	"xsearch/internal/proxy"
)

// This file renders the fleet's Prometheus surface and serves the shared
// structured event log. The same two hard rules as the per-proxy surface
// (see internal/obs) hold here, with one more closed label set: the
// shard index. Shard indices are fleet-assigned, never traffic-derived,
// so stamping each shard's series with its index keeps cardinality
// bounded by the ring size.

// handleMetrics serves GET /metrics: gateway routing counters, every
// live shard's full node surface labelled by shard index, and the
// fleet-merged stage summaries. With ?shard=N it narrows to that one
// shard's surface (still shard-labelled, so the series names align).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sh, selected, err := g.shardParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	pw := obs.NewPromWriter(w)
	if selected {
		proxy.WriteMetrics(pw, sh.proxy.Stats(), "shard", strconv.Itoa(sh.index))
		_ = pw.Flush()
		return
	}
	s := g.Stats()
	pw.Gauge("xsearch_fleet_shards", "Shard ring size.", float64(s.CurrentShards))
	pw.Gauge("xsearch_fleet_shards_alive", "Shards still able to serve.", float64(s.AliveShards))
	pw.Gauge("xsearch_fleet_sessions_active", "Sessions the live shards' enclave tables hold.", float64(s.SessionsActive))
	pw.Counter("xsearch_fleet_secure_routed_total", "Secure records routed.", float64(s.SecureRouted))
	pw.Counter("xsearch_fleet_handshakes_total", "Attested handshakes routed.", float64(s.Handshakes))
	pw.Counter("xsearch_fleet_sessions_lost_total", "Sessions lost with their shard.", float64(s.SessionsLost))
	pw.Counter("xsearch_fleet_errors_total", "Requests the gateway answered with an error.", float64(s.Errors))
	pw.Counter("xsearch_fleet_drains_total", "Completed sealed drain handoffs.", float64(s.Drains))
	pw.Counter("xsearch_fleet_migrated_queries_total", "History entries moved by sealed handoffs.", float64(s.MigratedQueries))

	// The fleet-merged stage view: counts summed, tails from the worst
	// shard (percentiles do not merge across histograms — the rule
	// proxy.Stats.Merge applies to every tail).
	pw.StageSummaries("xsearch_fleet_stage_latency_seconds", "Fleet-merged per-stage latency (counts summed, tails worst-shard).", s.Total.Stages)
	pw.Gauge("xsearch_fleet_events_logged", "Shared event-ring occupancy.", float64(s.EventsLogged))

	// Per-shard series: every live shard's full node surface, stamped
	// with its stable index. PromWriter groups families on Flush, so the
	// interleaved emission still renders valid exposition blocks.
	for _, ss := range s.Shards {
		if !ss.Alive {
			continue
		}
		proxy.WriteMetrics(pw, ss.Proxy, "shard", strconv.Itoa(ss.Index))
	}
	_ = pw.Flush()
}

// handleEvents serves GET /events: the fleet-shared structured event
// log, oldest first. With observability off it serves an empty array —
// the endpoint's shape is constant either way.
func (g *Gateway) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	evs := g.events.Snapshot()
	if evs == nil {
		evs = []obs.Event{}
	}
	_ = json.NewEncoder(w).Encode(evs)
}
