// Package fleet implements the enclave fleet layer: a session-routing
// Gateway fronting N independent proxy-enclave shards, each a full
// X-Search node with its own (simulated) SGX platform, history window,
// result cache, connection pools, and upstream registry.
//
// The paper's §6.3 throughput is bounded by one enclave's EPC and one
// host's cores; the fleet lifts both bounds the way CYCLOSA
// (arXiv:1805.01548) and Wally (arXiv:2406.06761) scale private search:
// by sharding state across many trusted nodes. Each client session lives
// on one shard for its whole life — the gateway opens it on the available
// shard with the fewest sessions it minted, the lowest index on a tie — so
// a session's obfuscation always draws fakes from the same in-enclave
// history window and Algorithm 1's k-anonymity argument holds per shard.
// The gateway serves sealed calls only; a caller in the same process is an
// internal/client session over proxy.InProcess, of the gateway or, to
// search one shard, of that shard's Proxy (its ServeQuery).
//
// The gateway holds nothing per session: the session id it hands a broker
// is the shard's index, a dot, and the enclave's own session id, so a
// secure call names its shard and each shard's enclave session table is
// the only one. The gateway health-checks shards and opens no session on a
// dead one; sessions on the dead shard are lost and the client broker
// transparently re-attests (its normal response to session loss), landing
// on a live shard. On a planned Drain, the departing shard's history
// window and answer index are handed to its successor, picked the way a
// new session's shard is, as one sealed blob: the enclave seals it under
// the fleet's shared sealing root (MRSIGNER policy), the untrusted gateway
// moves the opaque bytes, and the successor's enclave unseals and merges
// it, once and all or nothing — the privacy state never exists in
// plaintext outside a trusted boundary. The shared root models SGX fleet
// key provisioning (a migration key provisioned to every attested fleet
// enclave); on real hardware the same handoff runs over an attested
// enclave-to-enclave channel, and a monotonic counter would catch what
// the simulation does not: a persisted state file rolled back.
package fleet

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/enclave"
	"xsearch/internal/obs"
	"xsearch/internal/proxy"
)

// Errors the gateway returns to its callers.
var (
	// ErrNoLiveShard means every shard is dead or draining.
	ErrNoLiveShard = errors.New("fleet: no live shard available")
	// ErrUnknownSession means the session id names no shard of the ring;
	// no shard saw the call. Clients re-attest, exactly as for a proxy
	// restart.
	ErrUnknownSession = errors.New("fleet: unknown session")
	// ErrShardDown means the shard the session id names died; the channel
	// state died with its enclave. Clients re-attest.
	ErrShardDown = errors.New("fleet: session's shard is down; re-attest")
)

// DefaultHealthInterval is how often the gateway probes shard liveness
// when Config.HealthInterval is zero.
const DefaultHealthInterval = 100 * time.Millisecond

// Config parameterizes a fleet.
type Config struct {
	// Shards is the number of proxy-enclave shards (at least 1). The ring
	// is fixed at New: Kill and Drain retire a shard in place, and nothing
	// adds one.
	Shards int
	// ShardConfig is the template every shard is built from — a full
	// proxy.Config, so pools, caches, breakers, and the
	// upstream registry all compose per shard. The fleet derives what must
	// differ per shard: a dedicated platform (own EPC) sharing the fleet
	// sealing root, a distinct obfuscation seed (template seed + index,
	// when set), and a per-shard StatePath suffix (when set). The
	// AttestationService is shared across shards so clients pin one
	// service key for the whole fleet. The template's PlatformSeed derives the fleet-wide sealing root
	// every shard platform shares, enabling sealed shard handoff (nil: a
	// random per-fleet seed, so handoff works within the fleet's lifetime
	// but sealed state does not survive the process). Its EventLog is
	// the one event ring the gateway and every shard share (drains,
	// kills, shard deaths, breaker transitions — see internal/obs), made
	// at default size when the template has none and Observability is
	// on, so /events shows one fleet-wide, causally-ordered stream.
	ShardConfig proxy.Config
	// HealthInterval is the gateway's shard liveness probe period. Zero
	// means DefaultHealthInterval.
	HealthInterval time.Duration
}

// shard is one proxy-enclave node plus the gateway's view of it.
type shard struct {
	index int
	proxy *proxy.Proxy

	alive    atomic.Bool
	draining atomic.Bool
	// minted counts the sessions the gateway's handshakes opened here;
	// reserved counts the handshakes in flight here, not yet sessions.
	minted   atomic.Int64
	reserved atomic.Int64
	bound    int64 // the enclave session table's size limit
}

// live reports ground-truth liveness: the gateway's view (alive flag) AND
// the enclave's own state — a shard whose enclave died a moment ago is
// dead even before the health probe or a request failure updates the flag.
func (s *shard) live() bool { return s.alive.Load() && s.proxy.Healthy() }

// available reports whether new work may be routed to the shard. Draining
// shards keep serving their established sessions but take nothing new.
func (s *shard) available() bool { return s.live() && !s.draining.Load() }

// sessions is how many sessions the shard's enclave table holds: every one
// the gateway minted, up to the bound its FIFO eviction keeps it at. A
// handshake in flight is no session yet, so a shard that dies under one
// loses none for it.
func (s *shard) sessions() int { return int(min(s.minted.Load(), s.bound)) }

// Gateway fronts the shard fleet: it opens each session on the
// least-loaded available shard (pick), probes shard health, retires dead
// shards, and orchestrates sealed history handoff on drain. Its shard ring
// is fixed at New; shard i sits at shards[i] for the gateway's life.
type Gateway struct {
	cfg     Config
	service *attestation.Service
	migSeed []byte
	meas    enclave.Measurement

	httpFront
	muxFront

	// shards is the ring, written once by New and only read after.
	shards []*shard
	// pickMu makes a handshake's pick and its minted count one step.
	pickMu sync.Mutex

	// drainMu serializes drains, so a drain's successor cannot itself be
	// mid-drain (its window would be handed on before this one merged into
	// it), and Shutdown waits out a drain in flight.
	drainMu sync.Mutex

	// events is the fleet-shared structured event log (nil when
	// observability is off — every Append on it is then a no-op). One ring
	// for the whole fleet: shard events carry their shard index, so the
	// merged stream preserves cross-shard causal order.
	events *obs.Log

	stopHealth chan struct{}
	healthDone chan struct{}
	stopOnce   sync.Once

	// Routing counters (see Stats for semantics).
	secureRouted atomic.Uint64
	handshakes   atomic.Uint64
	sessionsLost atomic.Uint64
	drains       atomic.Uint64
	migratedQ    atomic.Uint64
	migratedB    atomic.Int64
	gwErrors     atomic.Uint64
}

// New builds the fleet: Shards proxy nodes from the shared template, one
// attestation service, and the routing gateway (health loop running; HTTP
// front not yet started).
func New(cfg Config) (*Gateway, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.ShardConfig.Platform != nil && cfg.Shards > 1 {
		// A shared platform would make every shard draw from ONE EPC —
		// the exact bound sharding exists to lift — and double-count it in
		// the aggregate stats. The fleet derives per-shard platforms; use
		// ShardConfig.PlatformSeed to control the shared sealing root.
		return nil, fmt.Errorf("fleet: ShardConfig.Platform must be nil for a multi-shard fleet (each shard gets its own platform; set ShardConfig.PlatformSeed for the shared sealing root)")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.ShardConfig.MaxSessions <= 0 {
		cfg.ShardConfig.MaxSessions = proxy.DefaultMaxSessions
	}
	migSeed := cfg.ShardConfig.PlatformSeed
	if migSeed == nil {
		migSeed = make([]byte, 32)
		if _, err := rand.Read(migSeed); err != nil {
			return nil, fmt.Errorf("fleet: migration seed: %w", err)
		}
	}
	service := cfg.ShardConfig.AttestationService
	if service == nil {
		var err error
		service, err = attestation.NewService()
		if err != nil {
			return nil, fmt.Errorf("fleet: attestation service: %w", err)
		}
	}

	g := &Gateway{
		cfg:        cfg,
		service:    service,
		migSeed:    migSeed,
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	// The fleet owns ONE event ring, the template's log or a default one
	// under Observability, and injects it into every shard.
	g.events = cfg.ShardConfig.EventLog
	if g.events == nil && cfg.ShardConfig.Observability {
		g.events = obs.NewLog(0)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := g.buildShard(i)
		if err != nil {
			for _, prev := range g.shards {
				_ = prev.proxy.Shutdown(context.Background())
			}
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		g.shards = append(g.shards, sh)
	}
	g.meas = g.shards[0].proxy.Measurement()
	g.initHTTP()
	go g.healthLoop()
	return g, nil
}

// buildShard instantiates one proxy-enclave node from the shared template:
// its own platform (own EPC) derived from the fleet sealing root, a
// distinct-but-reproducible obfuscation seed, and a per-index state path.
func (g *Gateway) buildShard(idx int) (*shard, error) {
	sc := g.cfg.ShardConfig
	sc.AttestationService = g.service
	sc.QuotingEnclave = nil // each shard enrolls its own QE with the shared service
	if sc.Platform == nil {
		// Every shard gets its own platform (its own EPC and cores — the
		// point of sharding) but all derive the same fuse key, the fleet's
		// provisioned migration sealing root, so any shard can receive
		// (and hand off) sealed history blobs.
		sc.Platform = enclave.NewPlatform(enclave.WithFuseSeed(g.migSeed))
	}
	if sc.Seed != 0 {
		// Distinct but reproducible obfuscation randomness per shard.
		sc.Seed += uint64(idx)
	}
	if sc.StatePath != "" {
		sc.StatePath = fmt.Sprintf("%s-shard%d", g.cfg.ShardConfig.StatePath, idx)
	}
	// Every shard writes into the fleet-shared event ring under its stable
	// index, so breaker events interleave with the gateway's drain, kill
	// and shard-death events in one causally-ordered stream. The proxy only
	// builds a private log when it is handed none.
	sc.EventLog = g.events
	sc.EventShard = idx
	p, err := proxy.New(sc)
	if err != nil {
		return nil, err
	}
	sh := &shard{index: idx, proxy: p, bound: int64(sc.MaxSessions)}
	sh.alive.Store(true)
	return sh, nil
}

// shardByIndex resolves a shard index to its ring entry (nil when out of
// range).
func (g *Gateway) shardByIndex(i int) *shard {
	if i < 0 || i >= len(g.shards) {
		return nil
	}
	return g.shards[i]
}

// healthLoop probes each shard's enclave liveness every HealthInterval,
// retiring dead shards (and their routed sessions) so requests stop being
// offered to them even between request-path failures.
func (g *Gateway) healthLoop() {
	defer close(g.healthDone)
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopHealth:
			return
		case <-ticker.C:
			for _, sh := range g.shards {
				if sh.alive.Load() && !sh.proxy.Healthy() {
					g.noteDead(sh)
				}
			}
		}
	}
}

// retire takes a shard out of routing once, however its end was seen, and
// counts its sessions lost (their brokers re-attest onto live shards).
// ok is false when the shard was already retired.
func (g *Gateway) retire(sh *shard) (lost int, ok bool) {
	if !sh.alive.CompareAndSwap(true, false) {
		return 0, false
	}
	lost = sh.sessions()
	g.sessionsLost.Add(uint64(lost))
	return lost, true
}

// noteDead retires a shard the moment its death is observed (health probe
// or request-path error): no further routing, and its sessions' calls get
// ErrShardDown, so brokers re-attest instead of timing out on it.
func (g *Gateway) noteDead(sh *shard) {
	if lost, ok := g.retire(sh); ok {
		g.events.Append(obs.Event{Type: obs.EvShardDead, Shard: sh.index,
			Reason: fmt.Sprintf("%d sessions dropped", lost)})
	}
}

// ShardCount returns the size of the shard ring: the configured Shards,
// killed and drained ones included (they stay in place, dead).
func (g *Gateway) ShardCount() int { return len(g.shards) }

// Shard returns shard i's proxy node, for per-shard inspection (stats,
// measurement) by operators, examples, and the bench harness.
func (g *Gateway) Shard(i int) (*proxy.Proxy, error) {
	sh := g.shardByIndex(i)
	if sh == nil {
		return nil, fmt.Errorf("fleet: unknown shard %d", i)
	}
	return sh.proxy, nil
}

// Measurement returns the enclave identity clients pin. Every shard is
// built from the same measured template, so all shards share one
// MRENCLAVE.
func (g *Gateway) Measurement() enclave.Measurement { return g.meas }

// AttestationService returns the fleet-shared verification service.
func (g *Gateway) AttestationService() *attestation.Service { return g.service }

// Kill simulates a shard crash: the shard's enclave is destroyed with no
// drain, no handoff, and no sealed-state persistence, exactly as a host
// failure would. The gateway is NOT pre-warned — it discovers the death
// through request failures and the health probe, which is what the
// availability experiments exercise.
func (g *Gateway) Kill(_ context.Context, i int) error {
	sh := g.shardByIndex(i)
	if sh == nil {
		return fmt.Errorf("fleet: unknown shard %d", i)
	}
	if !sh.live() {
		return fmt.Errorf("fleet: shard %d already dead", i)
	}
	sh.proxy.Crash()
	g.events.Append(obs.Event{Type: obs.EvKill, Shard: i})
	return nil
}

// DrainReport describes a completed planned drain: what the successor's
// merge of the drained shard's one sealed-state blob added.
type DrainReport struct {
	// Shard and Successor are the drained shard and the shard that
	// received its sealed state.
	Shard     int `json:"shard"`
	Successor int `json:"successor"`
	// MigratedQueries and MigratedBytes are the blob's history section
	// (bytes is the successor's net EPC delta).
	MigratedQueries int   `json:"migrated_queries"`
	MigratedBytes   int64 `json:"migrated_bytes"`
	// MigratedIndexDocs and MigratedIndexBytes are its answer-index
	// section (documents added at the successor and their net EPC delta).
	MigratedIndexDocs  int   `json:"migrated_index_docs,omitempty"`
	MigratedIndexBytes int64 `json:"migrated_index_bytes,omitempty"`
	// SessionsLost is how many sessions the shard's enclave table held when
	// it was drained; their brokers re-attest onto live shards.
	SessionsLost int `json:"sessions_lost"`
}

// Drain retires shard i in an orderly way: stop routing new work to it,
// seal its privacy state (history window and answer index) inside its
// enclave as one blob, hand the opaque blob to the successor shard (the
// one pick names once shard i is draining: the least-loaded other
// available shard), merge it there, then destroy the drained enclave. The
// merge is all or nothing and single-use, so a drain that returns an error
// has moved nothing and may be retried. The shard stays in the ring, dead.
// The departing shard's established sessions keep being served until the
// final destroy; the few queries they add after the snapshot fall outside
// the migrated window, the same bounded loss as the sliding window's own
// FIFO eviction. Their brokers then re-attest onto live shards. Drains run
// one at a time, so a successor is never itself mid-drain.
func (g *Gateway) Drain(ctx context.Context, i int) (*DrainReport, error) {
	sh := g.shardByIndex(i)
	if sh == nil {
		return nil, fmt.Errorf("fleet: unknown shard %d", i)
	}
	g.drainMu.Lock()
	defer g.drainMu.Unlock()
	if !sh.live() {
		return nil, fmt.Errorf("fleet: shard %d is dead; drain needs a live shard", i)
	}
	sh.draining.Store(true)
	succ := g.pick() // never sh: a draining shard is not available
	if succ == nil {
		sh.draining.Store(false)
		return nil, fmt.Errorf("fleet: no live successor for shard %d: %w", i, ErrNoLiveShard)
	}
	blob, err := sh.proxy.SnapshotState(ctx)
	if err != nil {
		sh.draining.Store(false)
		return nil, fmt.Errorf("fleet: snapshot shard %d: %w", i, err)
	}
	rep, err := succ.proxy.MergeState(ctx, blob)
	if err != nil {
		sh.draining.Store(false)
		return nil, fmt.Errorf("fleet: merge into shard %d: %w", succ.index, err)
	}
	lost, _ := g.retire(sh)
	_ = sh.proxy.Shutdown(ctx)
	g.drains.Add(1)
	g.migratedQ.Add(uint64(rep.Queries))
	g.migratedB.Add(rep.HistoryBytes)
	g.events.Append(obs.Event{Type: obs.EvDrain, Shard: i,
		Reason: fmt.Sprintf("sealed handoff to shard %d: %d queries, %d index docs, %d sessions lost",
			succ.index, rep.Queries, rep.IndexDocs, lost)})
	return &DrainReport{
		Shard:              i,
		Successor:          succ.index,
		MigratedQueries:    rep.Queries,
		MigratedBytes:      rep.HistoryBytes,
		MigratedIndexDocs:  rep.IndexDocs,
		MigratedIndexBytes: rep.IndexBytes,
		SessionsLost:       lost,
	}, nil
}

// Shutdown stops the health loop and HTTP front and destroys every live
// shard (persisting per-shard sealed state where configured). It waits out
// a drain in flight, and a drain called during or after it finds its shard
// dead.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.drainMu.Lock()
	defer g.drainMu.Unlock()
	g.stopOnce.Do(func() { close(g.stopHealth) })
	<-g.healthDone
	g.muxStop()
	var err error
	if g.front != nil {
		err = g.front.Shutdown(ctx)
	}
	for _, sh := range g.shards {
		// Only orderly-shutdown shards that are actually still serving: a
		// crashed shard whose flag the health loop has not yet cleared has
		// nothing left to persist and would only report spurious errors.
		if sh.alive.CompareAndSwap(true, false) && sh.proxy.Healthy() {
			if serr := sh.proxy.Shutdown(ctx); serr != nil && err == nil {
				err = serr
			}
		}
	}
	return err
}
