package fleet

import (
	"sort"
	"time"

	"xsearch/internal/metrics"
	"xsearch/internal/obs"
	"xsearch/internal/proxy"
)

// ShardStats is one shard's slice of the fleet snapshot.
type ShardStats struct {
	Index    int  `json:"index"`
	Alive    bool `json:"alive"`
	Draining bool `json:"draining"`
	// Sessions counts the sessions the gateway currently pins to this
	// shard.
	Sessions int `json:"sessions"`
	// Proxy is the shard's full node snapshot (per-shard EPC heap, history
	// bytes, cache/coalesce/pool gauges, upstream breakdown). Zero for a
	// dead shard — its enclave, and everything the gauges measured, is
	// gone.
	Proxy proxy.Stats `json:"proxy"`
}

// Stats is the fleet-wide operational snapshot: gateway routing counters,
// each shard's node snapshot, and cross-shard aggregates.
type Stats struct {
	Shards []ShardStats `json:"shards"`
	// CurrentShards is the shard ring's size, fixed at start (killed and
	// drained shards stay as dead entries) and AliveShards counts the ones
	// still able to serve.
	CurrentShards int `json:"current_shards"`
	AliveShards   int `json:"alive_shards"`
	// SessionsActive is the gateway routing table's size.
	SessionsActive int `json:"sessions_active"`

	// Gateway routing counters. PlainRouted/SecureRouted/Handshakes count
	// requests entering each route; Failovers counts requests re-routed
	// past a dead shard; SessionsLost counts session pins dropped because
	// their shard died or drained; Errors counts requests the gateway
	// answered with an error.
	PlainRouted  uint64 `json:"plain_routed"`
	SecureRouted uint64 `json:"secure_routed"`
	Handshakes   uint64 `json:"handshakes"`
	Failovers    uint64 `json:"failovers"`
	SessionsLost uint64 `json:"sessions_lost"`
	Errors       uint64 `json:"errors"`
	// Drain bookkeeping: completed drains and what their sealed handoffs
	// carried.
	Drains          uint64 `json:"drains"`
	MigratedQueries uint64 `json:"migrated_queries"`
	MigratedBytes   int64  `json:"migrated_bytes"`

	// Aggregates over live shards.
	Requests    uint64 `json:"requests"`
	HistoryLen  int    `json:"history_len"`
	HistoryB    int64  `json:"history_bytes"`
	CacheB      int64  `json:"cache_bytes"`
	EnclaveHeap int64  `json:"enclave_heap_bytes"`
	EPCUsed     int64  `json:"epc_used_bytes"`
	// Answer-tier aggregates: indexed documents and EPC bytes across live
	// shards, index probe hits, and the fleet-wide local-hit ratio (the
	// fraction of probed queries served without an upstream round trip),
	// recomputed from the summed hit/miss counters so it is a true fleet
	// ratio rather than an average of per-shard ratios.
	IndexDocs     int     `json:"index_docs,omitempty"`
	IndexB        int64   `json:"index_bytes,omitempty"`
	IndexHits     uint64  `json:"index_hits,omitempty"`
	LocalHitRatio float64 `json:"local_hit_ratio,omitempty"`
	// Async pipeline gauges, summed over live shards (zero when shards run
	// the blocking path).
	AsyncSubmitted   uint64 `json:"async_submitted,omitempty"`
	AsyncCompleted   uint64 `json:"async_completed,omitempty"`
	PipelineInFlight int    `json:"pipeline_in_flight,omitempty"`
	// Ecall batching gauges: vectorized boundary crossings summed over live
	// shards, and the worst per-shard request-batch occupancy p95
	// (occupancy distributions, like latency percentiles, do not merge).
	BatchesSubmitted     uint64  `json:"batches_submitted,omitempty"`
	BatchOccupancyP95Max float64 `json:"batch_occupancy_p95_max,omitempty"`
	// LatencyP99Max is the worst per-shard p99 query latency — percentiles
	// do not merge across histograms, so the fleet reports the most
	// conservative tail (per-shard percentiles live in Shards[i].Proxy).
	LatencyP99Max time.Duration `json:"latency_p99_max_ns,omitempty"`
	// Stages is the fleet-merged per-stage latency view (observability
	// on): counts summed over live shards, percentile/mean/max fields from
	// the worst shard — the same conservative-tail rule as LatencyP99Max.
	Stages map[string]metrics.LatencySnapshot `json:"stages,omitempty"`
	// Mux-edge gauges: transport connections currently held open (each
	// carrying many logical streams), connections accepted over the
	// fleet's lifetime, streams opened across all conns, and secure
	// sessions resumed over reconnected conns without re-attestation.
	MuxConns      int64  `json:"mux_conns,omitempty"`
	MuxConnsTotal uint64 `json:"mux_conns_total,omitempty"`
	MuxStreams    uint64 `json:"mux_streams,omitempty"`
	MuxResumes    uint64 `json:"mux_resumes,omitempty"`
	// EventsLogged is the shared event ring's occupancy.
	EventsLogged int `json:"events_logged,omitempty"`
	// Upstreams merges the per-shard upstream breakdowns by host (sorted),
	// showing each engine's fleet-wide traffic share and failures.
	Upstreams []proxy.UpstreamStats `json:"upstreams,omitempty"`
}

// Stats returns the fleet snapshot.
func (g *Gateway) Stats() Stats {
	s := Stats{
		PlainRouted:     g.plainRouted.Load(),
		SecureRouted:    g.secureRouted.Load(),
		Handshakes:      g.handshakes.Load(),
		Failovers:       g.failovers.Load(),
		SessionsLost:    g.sessionsLost.Load(),
		Errors:          g.gwErrors.Load(),
		Drains:          g.drains.Load(),
		MigratedQueries: g.migratedQ.Load(),
		MigratedBytes:   g.migratedB.Load(),
		MuxConns:        g.muxActive.Load(),
		MuxConnsTotal:   g.muxAccepted.Load(),
		MuxStreams:      g.muxStreams.Load(),
		MuxResumes:      g.muxResumes.Load(),
	}
	perShard := make(map[*shard]int)
	g.mu.Lock()
	s.SessionsActive = len(g.sessions)
	for _, sh := range g.sessions {
		perShard[sh]++
	}
	g.mu.Unlock()

	merged := make(map[string]proxy.UpstreamStats)
	s.CurrentShards = len(g.shards)
	var localHits, localTotal uint64
	for _, sh := range g.shards {
		ss := ShardStats{
			Index:    sh.index,
			Alive:    sh.live(),
			Draining: sh.draining.Load(),
			Sessions: perShard[sh],
		}
		if ss.Alive {
			ss.Proxy = sh.proxy.Stats()
			s.AliveShards++
			s.Requests += ss.Proxy.Requests
			s.HistoryLen += ss.Proxy.HistoryLen
			s.HistoryB += ss.Proxy.HistoryB
			s.CacheB += ss.Proxy.CacheB
			s.IndexDocs += ss.Proxy.IndexDocs
			s.IndexB += ss.Proxy.IndexB
			s.IndexHits += ss.Proxy.IndexHits
			// Per-shard denominator: cache probes when the shard runs a
			// cache (the index only probes on cache misses), index probes
			// otherwise — the same rule Proxy.Stats applies per node.
			localHits += ss.Proxy.CacheHits + ss.Proxy.IndexHits
			if t := ss.Proxy.CacheHits + ss.Proxy.CacheMisses; t > 0 {
				localTotal += t
			} else {
				localTotal += ss.Proxy.IndexHits + ss.Proxy.IndexMisses
			}
			s.EnclaveHeap += ss.Proxy.Enclave.HeapBytes
			s.EPCUsed += ss.Proxy.Enclave.EPCUsed
			s.AsyncSubmitted += ss.Proxy.AsyncSubmitted
			s.AsyncCompleted += ss.Proxy.AsyncCompleted
			s.PipelineInFlight += ss.Proxy.PipelineInFlight
			s.BatchesSubmitted += ss.Proxy.BatchesSubmitted
			if ss.Proxy.BatchOccupancyP95 > s.BatchOccupancyP95Max {
				s.BatchOccupancyP95Max = ss.Proxy.BatchOccupancyP95
			}
			if ss.Proxy.LatencyP99 > s.LatencyP99Max {
				s.LatencyP99Max = ss.Proxy.LatencyP99
			}
			s.Stages = obs.MergeStages(s.Stages, ss.Proxy.Stages)
			for _, u := range ss.Proxy.Upstreams {
				m := merged[u.Host]
				m.Host, m.Weight = u.Host, u.Weight
				m.Served += u.Served
				m.Failures += u.Failures
				m.CoolingDown = m.CoolingDown || u.CoolingDown
				m.PoolIdle += u.PoolIdle
				m.PoolReuses += u.PoolReuses
				m.PoolDials += u.PoolDials
				m.PoolEvicted += u.PoolEvicted
				merged[u.Host] = m
			}
		}
		s.Shards = append(s.Shards, ss)
	}
	for _, m := range merged {
		if total := m.PoolReuses + m.PoolDials; total > 0 {
			m.PoolReuseRatio = float64(m.PoolReuses) / float64(total)
		}
		s.Upstreams = append(s.Upstreams, m)
	}
	sort.Slice(s.Upstreams, func(i, j int) bool { return s.Upstreams[i].Host < s.Upstreams[j].Host })
	if localTotal > 0 {
		s.LocalHitRatio = float64(localHits) / float64(localTotal)
	}
	s.EventsLogged = g.events.Len()
	return s
}
