package mux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrConnLost reports that a call failed because the transport conn
// under it died and could not be revived in time. It is a transport
// verdict, not a server one: the request may or may not have been
// processed, so callers must only retry work that is safe either way —
// which sealed secure-channel records are, as long as the retry re-seals
// a fresh record (new sequence number) instead of replaying the old one.
var ErrConnLost = errors.New("mux: transport connection lost")

// DialFunc opens one transport conn to the gateway edge (raw TCP or the
// WebSocket adapter — the Redialer does not care which).
type DialFunc func(ctx context.Context) (io.ReadWriteCloser, error)

// Redialer keeps one mux session alive across transport failures. A
// dropped conn is re-dialed and the session layer rebuilt; the layers
// above — attested secure channels keyed by session ID — survive
// untouched, because their state lives in the broker and the enclave,
// not in the carrier. On each reconnect it announces how many live
// sessions ride the new conn (FrameResume), so the fleet can count
// resumes that skipped re-attestation.
type Redialer struct {
	dial DialFunc
	cfg  Config
	// LiveSessions, when set, reports how many secure-channel sessions
	// the owner is currently holding open; announced on reconnect.
	liveSessions func() int

	mu         sync.Mutex
	sess       *Session
	generation uint64 // bumps on every successful (re)dial
	closed     bool

	reconnects atomic.Uint64
	dialCount  atomic.Uint64
}

// NewRedialer wraps dial in reconnect-on-failure behavior. liveSessions
// may be nil.
func NewRedialer(dial DialFunc, cfg Config, liveSessions func() int) *Redialer {
	return &Redialer{dial: dial, cfg: cfg, liveSessions: liveSessions}
}

// Reconnects counts successful re-dials after the first connect.
func (r *Redialer) Reconnects() uint64 { return r.reconnects.Load() }

// Call issues one request, transparently dialing on first use and
// re-dialing once if the session under it has died. A call that fails
// mid-flight on a dying conn is NOT retried here — the Redialer cannot
// know whether the server processed it — so that surfaces as ErrConnLost
// and the caller decides (the broker re-seals and retries, which is safe
// because a fresh record has a fresh sequence number).
func (r *Redialer) Call(ctx context.Context, kind byte, req []byte) ([]byte, error) {
	sess, err := r.session(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := sess.Call(ctx, kind, req)
	if errors.Is(err, ErrSessionClosed) {
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return resp, err
}

// session returns the live session, dialing a new one if the current is
// dead. Dial attempts back off briefly; ctx bounds the whole wait.
func (r *Redialer) session(ctx context.Context) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrSessionClosed
	}
	if r.sess != nil {
		select {
		case <-r.sess.Done():
			// Fall through to re-dial.
		default:
			return r.sess, nil
		}
	}
	reconnect := r.generation > 0
	var lastErr error
	backoff := 10 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		conn, err := r.dial(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		r.dialCount.Add(1)
		r.sess = Client(conn, r.cfg)
		r.generation++
		if reconnect {
			r.reconnects.Add(1)
			live := 0
			if r.liveSessions != nil {
				live = r.liveSessions()
			}
			_ = r.sess.SendResume(live)
		}
		return r.sess, nil
	}
	return nil, fmt.Errorf("%w: dial failed: %v", ErrConnLost, lastErr)
}

// KillConn force-closes the current transport conn without marking the
// Redialer closed — the next Call re-dials. Chaos and test hook: it
// simulates an edge LB dropping the conn mid-secure-session.
func (r *Redialer) KillConn() {
	r.mu.Lock()
	sess := r.sess
	r.mu.Unlock()
	if sess != nil {
		_ = sess.Close()
	}
}

// Close tears down the current session and refuses further calls.
func (r *Redialer) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.sess != nil {
		_ = r.sess.Close()
		r.sess = nil
	}
	return nil
}
