package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/obs"
	"xsearch/internal/proxy"
	"xsearch/internal/serve"
)

// --- rendezvous (HRW) routing ---

// hrwScore ranks one shard for one routing key. Rendezvous hashing gives
// every (key, shard) pair an independent score; the key routes to its
// highest-scoring live shard, and when that shard dies the key falls to
// its next-highest — only the dead shard's keys move, with no ring state
// to rebalance.
func hrwScore(key, node string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(node))
	return h.Sum64()
}

// rank returns every shard ordered by descending HRW score for key: the
// preferred shard first, the failover candidates after. Callers still gate
// each candidate on availability. The ring is snapshotted, so a scale
// event mid-request at worst costs the request one failover hop.
func (g *Gateway) rank(key string) []*shard {
	out := g.list()
	if len(out) == 1 {
		return out
	}
	score := make(map[*shard]uint64, len(out))
	for _, sh := range out {
		score[sh] = hrwScore(key, sh.name)
	}
	sort.SliceStable(out, func(i, j int) bool { return score[out[i]] > score[out[j]] })
	return out
}

// sessionKey derives the HRW routing key of a new session from the
// client's channel offer — the one stable public value a session has
// before the enclave mints its ID. Hashing it (rather than using it raw)
// keeps key length bounded.
func sessionKey(offer json.RawMessage) string {
	sum := sha256.Sum256(offer)
	return "session:" + string(sum[:])
}

// --- session-routing table ---

// remember pins session to a shard, evicting the oldest pin when the
// table is full (mirroring the per-shard session tables' FIFO policy).
// forget and dropShardSessions delete pins and leave their ids in order
// (eviction skips them); once those outnumber the live pins they are
// squeezed out here, FIFO order among the live ones kept, so order is
// bounded by the table and not by the handshakes the process has ever seen.
func (g *Gateway) remember(session string, sh *shard) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.sessions) >= g.cfg.MaxSessions && len(g.order) > 0 {
		oldest := g.order[0]
		g.order = g.order[1:]
		delete(g.sessions, oldest)
	}
	g.sessions[session] = sh
	g.order = append(g.order, session)
	if len(g.order) > 2*len(g.sessions) {
		g.order = slices.DeleteFunc(g.order, func(s string) bool {
			_, live := g.sessions[s]
			return !live
		})
	}
}

// lookup resolves a session to its pinned shard.
func (g *Gateway) lookup(session string) (*shard, bool) {
	g.mu.Lock()
	sh, ok := g.sessions[session]
	g.mu.Unlock()
	return sh, ok
}

// forget drops one session pin (its order entry is skipped at eviction).
func (g *Gateway) forget(session string) {
	g.mu.Lock()
	delete(g.sessions, session)
	g.mu.Unlock()
}

// dropShardSessions removes every session pinned to the given shard,
// returning how many were lost (their brokers re-attest onto live shards).
func (g *Gateway) dropShardSessions(sh *shard) int {
	g.mu.Lock()
	n := 0
	for s, pinned := range g.sessions {
		if pinned == sh {
			delete(g.sessions, s)
			n++
		}
	}
	g.mu.Unlock()
	g.sessionsLost.Add(uint64(n))
	return n
}

// ShardOf reports which shard index a session is currently pinned to.
func (g *Gateway) ShardOf(session string) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sh, ok := g.sessions[session]
	if !ok {
		return 0, false
	}
	return sh.index, true
}

// --- request routing ---

// route is the one failover walk under ServeQuery and Handshake: it tries
// call on key's HRW shards in rank order, skipping unavailable ones. A
// failure on a shard that is still healthy is the request's own (engine
// down, bad query) and is returned as is — retrying siblings would only
// multiply it; a shard that turns out dead is retired and the walk goes on.
// A request counts as failed-over exactly once: the moment it first routes
// past (or retries off) a shard that is not merely draining. The event
// carries only the avoided shard's index — never the key.
func (g *Gateway) route(key string, call func(*shard) error) error {
	lastErr := ErrNoLiveShard
	deviated := false
	deviate := func(sh *shard) {
		if !deviated {
			deviated = true
			g.failovers.Add(1)
			g.events.Append(obs.Event{Type: obs.EvFailover, Shard: sh.index})
		}
	}
	for _, sh := range g.rank(key) {
		if !sh.available() {
			if !sh.draining.Load() {
				deviate(sh)
			}
			continue
		}
		err := call(sh)
		if err == nil {
			return nil
		}
		if sh.proxy.Healthy() {
			g.gwErrors.Add(1)
			return err
		}
		lastErr = err
		g.noteDead(sh)
		deviate(sh)
	}
	g.gwErrors.Add(1)
	return lastErr
}

// ServeQuery runs one plain query on the fleet, bypassing the HTTP front
// (the §6.3-style capacity path). The query routes to its HRW shard —
// identical queries always hit the same shard, so per-shard caches and
// single-flight coalescing stay effective fleet-wide — and fails over down
// the rank order when a shard turns out to be dead.
func (g *Gateway) ServeQuery(ctx context.Context, query string) ([]core.Result, error) {
	g.plainRouted.Add(1)
	var results []core.Result
	err := g.route("q:"+query, func(sh *shard) (err error) {
		results, err = sh.proxy.ServeQuery(ctx, query)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Handshake establishes an attested session on the offer's HRW shard and
// pins the resulting session ID to it, failing over down the rank order if
// the preferred shard is dead.
func (g *Gateway) Handshake(ctx context.Context, offer json.RawMessage, nonce []byte) (*proxy.HandshakeResponse, error) {
	g.handshakes.Add(1)
	var resp *proxy.HandshakeResponse
	err := g.route(sessionKey(offer), func(sh *shard) (err error) {
		if resp, err = sh.proxy.Handshake(ctx, offer, nonce); err == nil {
			g.remember(resp.Session, sh)
		}
		return err
	})
	return resp, err
}

// Secure routes one sealed record to the session's pinned shard. The
// channel keys live only inside that shard's enclave, so there is no
// failing over a secure request: if the shard is gone the session is gone,
// and the error tells the broker to re-attest (its normal recovery).
// Draining shards still serve their established sessions.
func (g *Gateway) Secure(ctx context.Context, session string, record []byte) ([]byte, error) {
	g.secureRouted.Add(1)
	sh, ok := g.lookup(session)
	if !ok {
		g.gwErrors.Add(1)
		return nil, ErrUnknownSession
	}
	if !sh.live() {
		// noteDead drops the shard's pins only on the first observation;
		// forget covers the case where the shard was already retired but
		// this pin was re-added by a racing handshake.
		g.noteDead(sh)
		g.forget(session)
		g.gwErrors.Add(1)
		return nil, ErrShardDown
	}
	reply, err := sh.proxy.Secure(ctx, session, record)
	if err != nil {
		if !sh.proxy.Healthy() {
			g.noteDead(sh)
			g.forget(session)
			g.gwErrors.Add(1)
			return nil, ErrShardDown
		}
		g.gwErrors.Add(1)
		return nil, err
	}
	return reply, nil
}

// --- HTTP front ---

// httpFront is the gateway's HTTP server state. The endpoint surface is
// exactly the proxy's (/search, /handshake, /secure, /stats, /healthz), so
// brokers and curl users point at a fleet the same way they point at a
// single node. The mux edge (see muxfront.go) rides the same mux at /mux
// for WebSocket clients plus an optional raw-TCP listener.
type httpFront struct {
	http  *http.Server
	front *serve.Server
}

func (g *Gateway) initHTTP() {
	mux := http.NewServeMux()
	proxy.HandleFront(mux, g)
	mux.HandleFunc("/mux", g.handleMuxUpgrade)
	mux.HandleFunc("/stats", g.handleStats)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/events", g.handleEvents)
	mux.HandleFunc("/healthz", g.handleHealthz)
	g.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	g.front = serve.Wrap(g.http)
}

// Start serves the gateway front on addr ("127.0.0.1:0" picks a port). A
// second Start returns serve.ErrAlreadyStarted; fatal accept-loop errors
// surface on ServeErr.
func (g *Gateway) Start(addr string) error {
	if err := g.front.Start(addr); err != nil {
		if errors.Is(err, serve.ErrAlreadyStarted) {
			return fmt.Errorf("fleet: gateway %w", serve.ErrAlreadyStarted)
		}
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// ServeErr delivers at most one fatal HTTP-front serve error (the accept
// loop died after a successful Start). A gateway whose front is dead
// cannot recover; operators should treat it like a crash.
func (g *Gateway) ServeErr() <-chan error { return g.front.Err() }

// Addr returns the bound address after Start.
func (g *Gateway) Addr() string { return g.front.Addr() }

// URL returns the gateway base URL.
func (g *Gateway) URL() string { return "http://" + g.Addr() }

// handleStats serves the fleet snapshot, or — with ?shard=N — one
// shard's own node snapshot (the same JSON its /stats would serve).
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	if sh, selected, err := g.shardParam(r); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	} else if selected {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sh.proxy.Stats())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.Stats())
}

// shardParam resolves an optional ?shard=N selector to its live ring
// entry. selected reports whether the parameter was present.
func (g *Gateway) shardParam(r *http.Request) (sh *shard, selected bool, err error) {
	v := r.URL.Query().Get("shard")
	if v == "" {
		return nil, false, nil
	}
	idx, perr := strconv.Atoi(v)
	if perr != nil {
		return nil, true, fmt.Errorf("fleet: bad shard selector %q", v)
	}
	sh = g.shardByIndex(idx)
	if sh == nil {
		return nil, true, fmt.Errorf("fleet: unknown shard %d", idx)
	}
	if !sh.live() {
		return nil, true, fmt.Errorf("fleet: shard %d is dead", idx)
	}
	return sh, true, nil
}

// handleHealthz reports fleet liveness: OK while at least one shard can
// take new work.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	for _, sh := range g.list() {
		if sh.available() {
			w.WriteHeader(http.StatusOK)
			return
		}
	}
	http.Error(w, ErrNoLiveShard.Error(), http.StatusServiceUnavailable)
}
