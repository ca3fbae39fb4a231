package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event types — the closed set of fleet/proxy lifecycle events. Nothing
// traffic-derived may ever become a type tag.
const (
	// EvScaleDecision is one autoscaler tick's DecideScale outcome,
	// carrying the decision inputs (load maxima, cooldown elapsed,
	// min/max clamps) so operators can see WHY the fleet did or did not
	// move.
	EvScaleDecision = "scale_decision"
	// EvScaleUp and EvScaleDown are executed ring mutations.
	EvScaleUp   = "scale_up"
	EvScaleDown = "scale_down"
	// EvDrain is a completed sealed drain handoff (planned removal).
	EvDrain = "drain"
	// EvKill is a simulated shard crash (chaos/operator initiated).
	EvKill = "kill"
	// EvShardDead is the gateway discovering a shard death (health probe
	// or request-path failure).
	EvShardDead = "shard_dead"
	// EvFailover is new work deviating from its ranked shard to the next
	// live one.
	EvFailover = "failover"
	// EvBreakerOpen and EvBreakerClose are upstream circuit-breaker
	// transitions (the upstream host is already host-visible: the
	// untrusted runtime dials it).
	EvBreakerOpen  = "breaker_open"
	EvBreakerClose = "breaker_close"
)

// Event is one structured, content-free fleet event. The shape is
// constant: a fixed field set, types from the closed Ev* set, shard
// indices and configured upstream hosts as the only identities, and
// numeric load signals. No field ever carries query or result content.
type Event struct {
	// Seq is a per-log monotonic sequence number: gaps after a Snapshot
	// tell the reader exactly how many events the ring dropped.
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_ns"`
	Type   string `json:"type"`
	// Shard is the subject shard's stable index (-1 when fleet-scoped).
	Shard int `json:"shard"`
	// Upstream is the engine host for breaker events.
	Upstream string `json:"upstream,omitempty"`
	// Reason is a human-readable cause from a fixed format-string set
	// (autoscaler decision reasons, drain causes). Numeric-bearing but
	// content-free.
	Reason string `json:"reason,omitempty"`
	// Autoscaler decision inputs (EvScaleDecision; zero elsewhere):
	// current ring size and clamps, elapsed cooldown, and the load
	// maxima DecideScale saw.
	Shards         int     `json:"shards,omitempty"`
	ShardsMin      int     `json:"shards_min,omitempty"`
	ShardsMax      int     `json:"shards_max,omitempty"`
	SinceLastMs    int64   `json:"since_last_ms,omitempty"`
	MaxOccupancy   float64 `json:"max_occupancy,omitempty"`
	MaxEPCFraction float64 `json:"max_epc_fraction,omitempty"`
	MaxLatencyP95  int64   `json:"max_latency_p95_ns,omitempty"`
}

// Log is a fixed-capacity ring buffer of events, safe for concurrent
// append and snapshot. When full, the oldest event is dropped — Seq
// stays monotonic so ordering (and drop counts) remain observable. A
// nil *Log drops everything, so emission sites need no gating.
type Log struct {
	mu     sync.Mutex
	buf    []Event
	start  int // index of the oldest event
	n      int // events currently held
	seq    uint64
	stream *json.Encoder // optional live JSON stream (e.g. stderr)
}

// LogOption configures NewLog.
type LogOption func(*Log)

// WithStream mirrors every appended event to w as one JSON object per
// line (the -log-json stderr stream). Writes happen under the log lock,
// in append order.
func WithStream(w io.Writer) LogOption {
	return func(l *Log) { l.stream = json.NewEncoder(w) }
}

// DefaultLogCapacity is the event ring size when callers pass cap <= 0.
const DefaultLogCapacity = 1024

// NewLog returns an empty ring holding up to cap events.
func NewLog(cap int, opts ...LogOption) *Log {
	if cap <= 0 {
		cap = DefaultLogCapacity
	}
	l := &Log{buf: make([]Event, cap)}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Append stamps the event (sequence, wall time if unset) and stores it,
// dropping the oldest event when the ring is full.
func (l *Log) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	if l.n == len(l.buf) {
		l.buf[l.start] = ev
		l.start = (l.start + 1) % len(l.buf)
	} else {
		l.buf[(l.start+l.n)%len(l.buf)] = ev
		l.n++
	}
	if l.stream != nil {
		_ = l.stream.Encode(ev)
	}
	l.mu.Unlock()
}

// Snapshot returns the held events oldest first. Nil logs return nil.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

// Len reports how many events the ring currently holds.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
