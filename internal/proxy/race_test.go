package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"xsearch/internal/enclave"
	"xsearch/internal/securechannel"
)

// These tests exist to run under `go test -race`: they hammer the shared
// trusted state (session table, history, pool, cache) from many goroutines
// at once, well past the FIFO eviction thresholds, so any unsynchronized
// access surfaces as a race report rather than a lucky pass.

// churnClient mints one session through Handshake (the Front call both
// edges and ServeQuery's sessions make, without the HTTP overhead) and
// returns the client's end of its channel and the session id.
func churnClient(p *Proxy) (*securechannel.Channel, string, error) {
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		return nil, "", err
	}
	offer, _ := hs.Offer().Marshal() // a role and two byte slices: it cannot fail
	resp, err := p.Handshake(context.Background(), offer, make([]byte, 16))
	if err != nil {
		return nil, "", err
	}
	peer, err := securechannel.UnmarshalOffer(resp.Offer)
	if err != nil {
		return nil, "", err
	}
	channel, err := hs.Complete(peer)
	return channel, resp.Session, err
}

// TestConcurrentSessionChurn drives handshakes and secure queries from
// many goroutines against a session table far smaller than the offered
// load, so FIFO eviction runs concurrently with lookups and inserts.
// Evicted sessions must fail cleanly ("unknown session"), never corrupt
// the table.
func TestConcurrentSessionChurn(t *testing.T) {
	const (
		maxSessions = 8
		workers     = 16
		handshakes  = 20
	)
	p, err := New(Config{
		K:             1,
		EchoMode:      true,
		Seed:          1,
		MaxSessions:   maxSessions,
		EnclaveConfig: enclave.Config{TCSCount: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < handshakes; i++ {
				channel, session, err := churnClient(p)
				if err != nil {
					errs <- fmt.Errorf("worker %d handshake %d: %w", w, i, err)
					return
				}
				for j := 0; j < 3; j++ {
					pt, err := json.Marshal(secureRequest{Query: fmt.Sprintf("w%d q%d-%d", w, i, j)})
					if err != nil {
						errs <- err
						return
					}
					record, err := channel.Seal(pt)
					if err != nil {
						errs <- err
						return
					}
					// Under churn the session may already be evicted:
					// an "unknown session" error is the correct outcome,
					// any other failure mode is not.
					_, err = p.ecall(context.Background(), envelope{
						Type:    typeSecure,
						Session: session,
						Record:  record,
					})
					if err != nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	p.trusted.mu.Lock()
	sessions, order := len(p.trusted.sessions), len(p.trusted.order)
	p.trusted.mu.Unlock()
	if sessions > maxSessions {
		t.Errorf("session table holds %d > max %d", sessions, maxSessions)
	}
	if sessions != order {
		t.Errorf("session table (%d) and FIFO order (%d) diverged", sessions, order)
	}
}

// TestConcurrentPlainAndHandshake mixes plain queries (history writes,
// pool checkouts would happen here if not echo) with handshakes so the
// obfuscator and session table contend at once.
func TestConcurrentPlainAndHandshake(t *testing.T) {
	p, err := New(Config{
		K:             2,
		EchoMode:      true,
		Seed:          1,
		MaxSessions:   4,
		EnclaveConfig: enclave.Config{TCSCount: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.encl.Destroy()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("plain w%d i%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := churnClient(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := p.trusted.obfuscator.History().Len(); got == 0 {
		t.Error("history empty after concurrent plain queries")
	}
}
