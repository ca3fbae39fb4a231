package fleet

import "xsearch/internal/proxy"

// ShardStats is one shard's slice of the fleet snapshot.
type ShardStats struct {
	Index    int  `json:"index"`
	Alive    bool `json:"alive"`
	Draining bool `json:"draining"`
	// Sessions counts the sessions the shard's enclave table holds: those
	// the gateway's handshakes minted on it, capped at the table's bound.
	// A handshake in flight counts from its pick (see reserve). Zero for
	// a dead shard.
	Sessions int `json:"sessions"`
	// Proxy is the shard's full node snapshot (per-shard EPC heap, history
	// bytes, cache/coalesce/pool gauges, upstream breakdown). Zero for a
	// dead shard — its enclave, and everything the gauges measured, is
	// gone.
	Proxy proxy.Stats `json:"proxy"`
}

// Stats is the fleet-wide operational snapshot: gateway routing counters,
// each shard's node snapshot, and their merged Total.
type Stats struct {
	Shards []ShardStats `json:"shards"`
	// CurrentShards is the shard ring's size, fixed at start (killed and
	// drained shards stay as dead entries) and AliveShards counts the ones
	// still able to serve.
	CurrentShards int `json:"current_shards"`
	AliveShards   int `json:"alive_shards"`
	// SessionsActive is the sum of the live shards' Sessions.
	SessionsActive int `json:"sessions_active"`

	// Gateway routing counters. SecureRouted/Handshakes count requests
	// entering each route; SessionsLost counts the sessions a shard held
	// when the gateway saw it die or drained it; Errors counts requests the
	// gateway answered with an error.
	SecureRouted uint64 `json:"secure_routed"`
	Handshakes   uint64 `json:"handshakes"`
	SessionsLost uint64 `json:"sessions_lost"`
	Errors       uint64 `json:"errors"`
	// Drain bookkeeping: completed drains and what their sealed handoffs
	// carried.
	Drains          uint64 `json:"drains"`
	MigratedQueries uint64 `json:"migrated_queries"`
	MigratedBytes   int64  `json:"migrated_bytes"`

	// Mux-edge gauges: transport connections currently held open (each
	// carrying many logical streams), connections accepted over the
	// fleet's lifetime, streams opened across all conns, and secure
	// sessions resumed over reconnected conns without re-attestation.
	MuxConns      int64  `json:"mux_conns,omitempty"`
	MuxConnsTotal uint64 `json:"mux_conns_total,omitempty"`
	MuxStreams    uint64 `json:"mux_streams,omitempty"`
	MuxResumes    uint64 `json:"mux_resumes,omitempty"`
	// EventsLogged is the occupancy of the one event ring all shards
	// share.
	EventsLogged int `json:"events_logged,omitempty"`
	// Total is the merge of the live shards' node snapshots (see
	// proxy.Stats.Merge): counts and gauges summed, ratios derived from
	// the sums, tails from the worst shard, upstreams merged by host.
	Total proxy.Stats `json:"total"`
}

// Stats returns the fleet snapshot.
func (g *Gateway) Stats() Stats {
	s := Stats{
		SecureRouted:    g.secureRouted.Load(),
		Handshakes:      g.handshakes.Load(),
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
	s.CurrentShards = len(g.shards)
	for _, sh := range g.shards {
		ss := ShardStats{
			Index:    sh.index,
			Alive:    sh.live(),
			Draining: sh.draining.Load(),
		}
		if ss.Alive {
			ss.Sessions = sh.sessions()
			s.SessionsActive += ss.Sessions
			ss.Proxy = sh.proxy.Stats()
			s.AliveShards++
			s.Total.Merge(ss.Proxy)
		}
		s.Shards = append(s.Shards, ss)
	}
	s.EventsLogged = g.events.Len()
	return s
}
