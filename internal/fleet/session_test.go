package fleet

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"xsearch/internal/broker"
	"xsearch/internal/proxy"
	"xsearch/internal/securechannel"
)

// gatewayHandshake opens one session through g as a broker would — a fresh
// client offer — and returns the session id the gateway handed out with
// the shard pick named just before the call.
func gatewayHandshake(t *testing.T, g *Gateway) (session string, preferred int) {
	t.Helper()
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		t.Fatalf("NewHandshake: %v", err)
	}
	offer, err := hs.Offer().Marshal()
	if err != nil {
		t.Fatalf("offer: %v", err)
	}
	picked := g.pick()
	resp, err := g.Handshake(context.Background(), offer, make([]byte, 16))
	if err != nil {
		t.Fatalf("Handshake: %v", err)
	}
	return resp.Session, picked.index
}

func shardSessions(g *Gateway) []int {
	var out []int
	for _, ss := range g.Stats().Shards {
		out = append(out, ss.Sessions)
	}
	return out
}

func fleetECalls(g *Gateway) uint64 {
	var n uint64
	for _, sh := range g.shards {
		n += sh.proxy.Stats().Enclave.ECalls
	}
	return n
}

// connectOnShard connects one broker and reports the shard its session
// landed on: the one shard whose Sessions rose, by exactly one.
func connectOnShard(t *testing.T, g *Gateway, transport string) (*broker.Broker, int) {
	t.Helper()
	before := shardSessions(g)
	b := connectedBroker(t, g, transport)
	after := shardSessions(g)
	on := -1
	for i := range after {
		switch d := after[i] - before[i]; {
		case d == 1 && on < 0:
			on = i
		case d != 0:
			t.Fatalf("one %s handshake moved Sessions %v -> %v", transport, before, after)
		}
	}
	if on < 0 {
		t.Fatalf("a %s handshake left Sessions at %v", transport, after)
	}
	return b, on
}

// TestHandshakeRaisesItsShardSessionsByOne is the contract the benchmark
// spreads its brokers over shards by: over either edge, a handshake raises
// its shard's Sessions by exactly one, and a shard the gateway sees die or
// drains adds exactly its count to SessionsLost.
func TestHandshakeRaisesItsShardSessionsByOne(t *testing.T) {
	for _, transport := range []string{"http", "mux"} {
		t.Run(transport, func(t *testing.T) {
			g := echoFleet(t, 3, time.Hour)
			if err := g.Start("127.0.0.1:0"); err != nil {
				t.Fatalf("Start: %v", err)
			}
			if err := g.StartMux("127.0.0.1:0"); err != nil {
				t.Fatalf("StartMux: %v", err)
			}
			ctx := context.Background()
			var victim *broker.Broker
			for i := 0; i < 64 && victim == nil; i++ {
				if b, on := connectOnShard(t, g, transport); on == 0 {
					victim = b
				}
			}
			for i := 0; i < 4; i++ {
				connectOnShard(t, g, transport)
			}
			if victim == nil {
				t.Fatalf("64 handshakes never landed on shard 0: %v", shardSessions(g))
			}
			st := g.Stats()
			if sum := st.Shards[0].Sessions + st.Shards[1].Sessions + st.Shards[2].Sessions; st.SessionsActive != sum || uint64(sum) != st.Handshakes {
				t.Fatalf("SessionsActive %d, per shard %v, handshakes %d", st.SessionsActive, shardSessions(g), st.Handshakes)
			}

			// A kill counts once the gateway sees it: here, the victim's
			// next search, which re-attests onto a live shard.
			killed := st.Shards[0].Sessions
			if err := g.Kill(ctx, 0); err != nil {
				t.Fatalf("Kill: %v", err)
			}
			if _, err := victim.Search(ctx, "after the kill"); err != nil {
				t.Fatalf("search after kill: %v", err)
			}
			st = g.Stats()
			if st.SessionsLost != uint64(killed) || st.Shards[0].Sessions != 0 {
				t.Fatalf("after killing %d sessions: lost %d, shard 0 holds %d", killed, st.SessionsLost, st.Shards[0].Sessions)
			}

			drained := st.Shards[1].Sessions
			rep, err := g.Drain(ctx, 1)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			st = g.Stats()
			if rep.SessionsLost != drained || st.SessionsLost != uint64(killed+drained) {
				t.Fatalf("drained %d sessions: report %d, lost %d (after %d killed)", drained, rep.SessionsLost, st.SessionsLost, killed)
			}
			if st.SessionsActive != st.Shards[2].Sessions {
				t.Fatalf("SessionsActive %d counts dead shards: %v", st.SessionsActive, shardSessions(g))
			}
		})
	}
}

// TestSecureOnUnnamedShardCostsNoECall: an id that names no shard of the
// ring is refused at the gateway, before any shard's enclave is entered;
// a well-formed id the enclave does not know costs its shard the crossing
// that finds that out.
func TestSecureOnUnnamedShardCostsNoECall(t *testing.T) {
	g := echoFleet(t, 2, time.Hour)
	ctx := context.Background()
	session, _ := gatewayHandshake(t, g)
	_, enclaveID, _ := strings.Cut(session, ".")
	for _, id := range []string{
		"", ".", "0", "0.", "." + enclaveID, enclaveID,
		"2." + enclaveID, "10." + enclaveID, "00." + enclaveID, "01." + enclaveID,
		"+0." + enclaveID, "-0." + enclaveID, " 0." + enclaveID, "0x1." + enclaveID,
		"١." + enclaveID, // ARABIC-INDIC DIGIT ONE
		"18446744073709551617." + enclaveID,
	} {
		before := fleetECalls(g)
		if _, err := g.Secure(ctx, id, []byte("record")); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("Secure(%q) = %v, want ErrUnknownSession", id, err)
		}
		if _, ok := g.ShardOf(id); ok {
			t.Errorf("ShardOf(%q) ok", id)
		}
		if n := fleetECalls(g) - before; n != 0 {
			t.Errorf("Secure(%q) cost %d ecalls", id, n)
		}
	}

	before := fleetECalls(g)
	_, err := g.Secure(ctx, "1.0123456789abcdef0123456789abcdef", []byte("record"))
	if err == nil || errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrShardDown) {
		t.Fatalf("an id shard 1's enclave never minted: %v, want the enclave's refusal", err)
	}
	if fleetECalls(g) == before {
		t.Fatal("a well-formed id never reached its shard")
	}
}

// TestSecureOnKilledShardIsShardDown: once the shard a session id names is
// dead, the call is ErrShardDown without entering it, and the session's
// broker re-attests once onto a live shard.
func TestSecureOnKilledShardIsShardDown(t *testing.T) {
	g := echoFleet(t, 2, time.Hour)
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	var b *broker.Broker
	for i := 0; i < 64 && b == nil; i++ {
		if cand, on := connectOnShard(t, g, "http"); on == 0 {
			b = cand
		}
	}
	if b == nil {
		t.Fatalf("64 handshakes never landed on shard 0: %v", shardSessions(g))
	}
	var session string
	for session == "" {
		if id, _ := gatewayHandshake(t, g); strings.HasPrefix(id, "0.") {
			session = id
		}
	}
	if _, err := b.Search(ctx, "before the kill"); err != nil {
		t.Fatalf("search before kill: %v", err)
	}
	if err := g.Kill(ctx, 0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if _, err := g.Secure(ctx, session, []byte("record")); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Secure on the killed shard = %v, want ErrShardDown", err)
	}
	if _, ok := g.ShardOf(session); ok {
		t.Fatal("ShardOf reports a session on a dead shard")
	}

	handshakes := g.Stats().Handshakes
	if _, err := b.Search(ctx, "after the kill"); err != nil {
		t.Fatalf("search after kill: %v", err)
	}
	st := g.Stats()
	if st.Handshakes != handshakes+1 {
		t.Fatalf("handshakes %d -> %d, want one re-attestation", handshakes, st.Handshakes)
	}
	if st.SessionsActive != st.Shards[1].Sessions || st.Shards[0].Sessions != 0 {
		t.Fatalf("sessions after the kill: active %d, per shard %v", st.SessionsActive, shardSessions(g))
	}
}

// TestShardOfNamesEveryMintedSession: every id the gateway hands out is the
// shard index, a dot and the enclave's id, ShardOf reads that shard back,
// and the shard's Sessions stops at its enclave table's bound, past which
// the enclave, not the gateway, evicts the oldest session.
func TestShardOfNamesEveryMintedSession(t *testing.T) {
	const bound = 4
	g, err := New(Config{
		Shards:         3,
		ShardConfig:    proxy.Config{K: 2, EchoMode: true, Seed: 5, MaxSessions: bound},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = g.Shutdown(context.Background()) })
	minted := make([][]string, 3)
	for i := 0; i < 30; i++ {
		session, want := gatewayHandshake(t, g)
		prefix, enclaveID, _ := strings.Cut(session, ".")
		if prefix != strconv.Itoa(want) || len(enclaveID) != 32 {
			t.Fatalf("session %q, want shard %d's prefix on a 32-digit enclave id", session, want)
		}
		if got, ok := g.ShardOf(session); !ok || got != want {
			t.Fatalf("ShardOf(%q) = %d, %t, want %d", session, got, ok, want)
		}
		minted[want] = append(minted[want], session)
	}
	for i, ss := range g.Stats().Shards {
		if want := min(len(minted[i]), bound); ss.Sessions != want {
			t.Errorf("shard %d: Sessions %d after %d handshakes, want %d", i, ss.Sessions, len(minted[i]), want)
		}
	}
	for i, ids := range minted {
		if len(ids) <= bound {
			continue
		}
		_, err := g.Secure(context.Background(), ids[0], []byte("record"))
		if err == nil || errors.Is(err, ErrUnknownSession) || !strings.Contains(err.Error(), "unknown session") {
			t.Errorf("shard %d's evicted oldest session: %v, want its enclave's unknown-session refusal", i, err)
		}
		if got, ok := g.ShardOf(ids[0]); !ok || got != i {
			t.Errorf("ShardOf(%q) = %d, %t: an id names its shard whatever the enclave holds", ids[0], got, ok)
		}
		return
	}
	t.Fatalf("no shard took more than %d of 30 handshakes", bound)
}
