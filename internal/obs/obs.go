// Package obs is the privacy-safe observability layer: per-request
// stage tracing accumulated into fixed-bucket latency histograms, a
// constant-shape structured event log, and a hand-rolled Prometheus
// text-format encoder.
//
// The host is the adversary, so everything this package exports obeys
// two hard rules:
//
//   - Content-free: no query text, no result text, no per-request
//     events. Stage timings are accumulated into aggregate histograms
//     (the host could already time each request at the ecall seam — the
//     aggregates tell it nothing new); events carry only closed-set type
//     tags, shard indices, upstream hosts (already host-visible — the
//     host dials them), and numeric fields.
//   - Constant cardinality: every metric label value comes from a closed
//     set fixed at build/config time — stage names (the Stage* constants
//     below), shard indices, configured upstream hosts. Nothing derived
//     from traffic can mint a new time series, so the shape of the
//     telemetry is independent of what users ask.
//
// The telemetry-lint CI step enforces rule one mechanically: this
// package must never mention query or result types, and emission sites
// outside the enclave must not pass request content.
package obs

import (
	"time"

	"xsearch/internal/metrics"
)

// Stage names — the closed set of per-request pipeline stages. These are
// the ONLY valid stage labels; Stages.Record ignores anything else so a
// coding error cannot mint an unbounded label.
const (
	// StageAdmit is the wait for an admission slot (pipeline semaphore on
	// the async path). Untrusted-side by nature: the host owns the queue.
	StageAdmit = "admit"
	// StageObfuscate is Algorithm 1 plus its EPC settlement (trusted).
	StageObfuscate = "obfuscate"
	// StageProbe is the cache + local-index probe (trusted).
	StageProbe = "probe"
	// StageSubmit is the fetch submission: ring submission on the async
	// path, including any batcher hold on the batched path.
	StageSubmit = "submit"
	// StageTLSHandshake is the in-enclave TLS handshake with an engine
	// upstream (trusted), whether it ran on the blocking dial or as an
	// async flight. Resumed sessions record here too, so the histogram's
	// low buckets show the resumption hit rate.
	StageTLSHandshake = "handshake"
	// StageFetch is one successful engine exchange (pool checkout or dial
	// through the last response byte), hedges included.
	StageFetch = "fetch"
	// StageHedge is how long a request had waited when its hedge fired.
	StageHedge = "hedge"
	// StageResume is the resume ecall's winner processing: parse, filter,
	// cache charge, seal (trusted).
	StageResume = "resume"
	// StageFilter is Algorithm 2 (filter + redirect strip) alone, on both
	// the sync and resume paths (trusted).
	StageFilter = "filter"
	// StageReply is the end-to-end request wall time, admission through
	// sealed reply.
	StageReply = "reply"
)

// StageNames lists every valid stage in pipeline order. Exported so the
// Prometheus encoder and the fleet merge iterate a stable closed set.
var StageNames = []string{
	StageAdmit, StageObfuscate, StageProbe, StageSubmit, StageTLSHandshake,
	StageFetch, StageHedge, StageResume, StageFilter, StageReply,
}

// Stages accumulates per-stage latencies into one fixed-bucket histogram
// per stage. A nil *Stages is a valid no-op recorder — the hot path pays
// one predictable nil check when observability is off.
type Stages struct {
	hists map[string]*metrics.Histogram
}

// NewStages returns a recorder with one empty histogram per stage.
func NewStages() *Stages {
	s := &Stages{hists: make(map[string]*metrics.Histogram, len(StageNames))}
	for _, name := range StageNames {
		s.hists[name] = metrics.NewHistogram()
	}
	return s
}

// Record adds one observation to a stage's histogram. Unknown stages are
// dropped (closed set), as is everything on a nil recorder.
func (s *Stages) Record(stage string, d time.Duration) {
	if s == nil {
		return
	}
	if h, ok := s.hists[stage]; ok {
		h.Record(d)
	}
}

// Since records the elapsed time from start to now for a stage —
// hot-path sugar that costs nothing when the recorder is nil.
func (s *Stages) Since(stage string, start time.Time) {
	if s == nil {
		return
	}
	if h, ok := s.hists[stage]; ok {
		h.Record(time.Since(start))
	}
}

// Snapshot returns the per-stage aggregate summaries, omitting stages
// with no samples (a sync-only proxy never records "submit"). Nil
// recorders return nil: the field marshals away entirely.
func (s *Stages) Snapshot() map[string]metrics.LatencySnapshot {
	if s == nil {
		return nil
	}
	out := make(map[string]metrics.LatencySnapshot, len(s.hists))
	for name, h := range s.hists {
		if snap := h.Snapshot(); snap.Count > 0 {
			out[name] = snap
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// MergeStages folds one shard's stage snapshot into a fleet aggregate:
// counts sum (every shard's samples are real samples), percentile and
// max fields take the worst shard (percentiles from different histograms
// cannot be averaged; the worst shard's tail is the honest fleet answer,
// the same rule fleet.Stats already applies to LatencyP99Max).
func MergeStages(dst map[string]metrics.LatencySnapshot, src map[string]metrics.LatencySnapshot) map[string]metrics.LatencySnapshot {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]metrics.LatencySnapshot, len(src))
	}
	for name, s := range src {
		d, ok := dst[name]
		if !ok {
			dst[name] = s
			continue
		}
		d.Count += s.Count
		if s.P50 > d.P50 {
			d.P50 = s.P50
		}
		if s.P90 > d.P90 {
			d.P90 = s.P90
		}
		if s.P95 > d.P95 {
			d.P95 = s.P95
		}
		if s.P99 > d.P99 {
			d.P99 = s.P99
		}
		if s.P999 > d.P999 {
			d.P999 = s.P999
		}
		if s.Mean > d.Mean {
			d.Mean = s.Mean
		}
		if s.Max > d.Max {
			d.Max = s.Max
		}
		dst[name] = d
	}
	return dst
}
