package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"xsearch/internal/proxy"
	"xsearch/internal/serve"
)

// --- session ids ---

// sessionShard parses a gateway session id, "<shard index>." + the
// enclave's own id, strictly (a decimal index inside the ring without sign
// or leading zero, a non-empty enclave id) into its shard and enclave id.
// The id names its shard, so the gateway keeps no session table: each
// shard enclave's (FIFO) table is the only one. It reads the id where it
// lies, a secure call's body or a string, and copies neither.
func sessionShard[T string | []byte](g *Gateway, session T) (*shard, T, bool) {
	dot := 0
	for dot < len(session) && session[dot] != '.' {
		dot++
	}
	n, err := strconv.ParseUint(string(session[:dot]), 10, 0)
	if err != nil || n >= uint64(len(g.shards)) || (dot > 1 && session[0] == '0') || dot+1 >= len(session) {
		return nil, session[:0], false
	}
	return g.shards[n], session[dot+1:], true
}

// ShardOf reports which shard index a gateway session id names, ok only
// while that shard is live.
func (g *Gateway) ShardOf(session string) (int, bool) {
	sh, _, ok := sessionShard(g, session)
	if !ok || !sh.live() {
		return 0, false
	}
	return sh.index, true
}

// --- request routing ---

// pick names the shard a new session goes to, and a drain's successor: the
// available shard with the fewest sessions the gateway minted or reserved,
// the lowest index on a tie, or nil when no shard is available. It reads
// the uncapped counts, not sessions(): that is capped at the enclave
// table's bound, so once every shard reached it all would tie and shard 0
// would take every new session. A shard's own ServeQuery sessions are not
// minted here (an in-process client of the gateway is), so it misses them.
func (g *Gateway) pick() *shard {
	var best *shard
	var bestLoad int64
	for _, sh := range g.shards {
		load := sh.minted.Load() + sh.reserved.Load()
		if sh.available() && (best == nil || load < bestLoad) {
			best, bestLoad = sh, load
		}
	}
	return best
}

// reserve picks a new session's shard and reserves it there in one step,
// so handshakes in flight together see each other's picks and spread like
// sequential ones. The handshake gives the reservation back when it ends,
// and a minted session takes its place first if it succeeded.
func (g *Gateway) reserve() *shard {
	g.pickMu.Lock()
	defer g.pickMu.Unlock()
	sh := g.pick()
	if sh != nil {
		sh.reserved.Add(1)
	}
	return sh
}

// Handshake establishes an attested session on the reserved shard and
// hands the broker a session id that names it. A shard that turns out dead
// once the call returns, whether the handshake failed or completed, is
// retired and the next pick is tried, so each pass retires one shard and
// the loop ends; a failure on a shard that is still healthy is the
// handshake's own and is returned as is.
func (g *Gateway) Handshake(ctx context.Context, offer json.RawMessage, nonce []byte) (*proxy.HandshakeResponse, error) {
	g.handshakes.Add(1)
	for sh := g.reserve(); sh != nil; sh = g.reserve() {
		resp, err := sh.proxy.Handshake(ctx, offer, nonce)
		healthy := sh.proxy.Healthy()
		if healthy && err == nil {
			sh.minted.Add(1)
			sh.reserved.Add(-1)
			resp.Session = strconv.Itoa(sh.index) + "." + resp.Session
			return resp, nil
		}
		sh.reserved.Add(-1)
		if healthy {
			g.gwErrors.Add(1)
			return nil, err
		}
		g.noteDead(sh)
	}
	g.gwErrors.Add(1)
	return nil, ErrNoLiveShard
}

// Secure forwards one sealed record to the shard its session id names,
// under the bare enclave id. The channel keys live only inside that
// shard's enclave, so there is no failing over a secure request: if the
// shard is gone the session is gone, and the error tells the broker to
// re-attest (its normal recovery). Draining shards still serve their
// established sessions. Neither argument is kept past the call.
func (g *Gateway) SecureCall(ctx context.Context, session, record []byte) ([]byte, error) {
	g.secureRouted.Add(1)
	sh, id, ok := sessionShard(g, session)
	if !ok {
		g.gwErrors.Add(1)
		return nil, ErrUnknownSession
	}
	if !sh.live() {
		g.noteDead(sh)
		g.gwErrors.Add(1)
		return nil, ErrShardDown
	}
	reply, err := sh.proxy.SecureCall(ctx, id, record)
	if err == nil {
		return reply, nil
	}
	g.gwErrors.Add(1)
	if !sh.proxy.Healthy() {
		g.noteDead(sh)
		return nil, ErrShardDown
	}
	return nil, err
}

// Secure is SecureCall with a string id, the form bench/trace.go and tests call.
func (g *Gateway) Secure(ctx context.Context, session string, record []byte) ([]byte, error) {
	return g.SecureCall(ctx, []byte(session), record)
}

// Refused counts a call a client edge refused before routing as one of the
// gateway's errors; no shard saw it.
func (g *Gateway) Refused() { g.gwErrors.Add(1) }

// --- HTTP front ---

// httpFront is the gateway's HTTP server state. The endpoint surface is
// exactly the proxy's (/handshake, /secure, /stats, /metrics, /events,
// /healthz), so a broker points at a fleet the same way it points at a
// single node. The mux edge (see muxfront.go) is a separate raw-TCP
// listener, not a route here.
type httpFront struct {
	http  *http.Server
	front *serve.Server
}

func (g *Gateway) initHTTP() {
	mux := http.NewServeMux()
	proxy.HandleFront(mux, g)
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
	for _, sh := range g.shards {
		if sh.available() {
			w.WriteHeader(http.StatusOK)
			return
		}
	}
	http.Error(w, ErrNoLiveShard.Error(), http.StatusServiceUnavailable)
}
