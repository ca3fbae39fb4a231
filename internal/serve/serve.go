// Package serve wraps net/http server lifecycle for the X-Search fronts
// (proxy admin mux, fleet gateway, broker local endpoint) with three
// behaviors the bare pattern `go srv.Serve(ln)` gets wrong:
//
//   - Fatal serve errors are surfaced on Err() instead of being silently
//     discarded in the goroutine — a front whose accept loop died (fd
//     exhaustion, listener teardown by the host) otherwise keeps
//     advertising an address that serves nothing.
//   - A second Start returns ErrAlreadyStarted instead of leaking a
//     listener and racing two accept loops over one *http.Server.
//   - Shutdown immediately closes connections that have never carried a
//     request. net/http's graceful Shutdown keeps StateNew conns alive
//     for a 5-second grace (golang/go#22682) so a client that just
//     dialed can still send its request — but every such conn during
//     teardown is a transport's spare (a dial that lost the race against
//     idle-conn reuse and parked unused in the client's pool), and
//     waiting out the grace stalls fleet teardown past its drain
//     deadline. The listener is already closed when we reap them, so a
//     conn with no request in flight loses nothing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// ErrAlreadyStarted is returned by Start when the server is already
// serving (or served once; these fronts are not restartable).
var ErrAlreadyStarted = errors.New("serve: already started")

// Server owns one *http.Server plus its listener and conn-state ledger.
type Server struct {
	srv *http.Server

	mu      sync.Mutex
	ln      net.Listener
	started bool
	// fresh tracks conns in StateNew — accepted, no request read yet.
	// Entries leave on the first byte of a request (StateActive) and on
	// close/hijack, so at Shutdown the set is exactly the conns that are
	// safe to close without cutting a request short.
	fresh map[net.Conn]struct{}

	closing bool

	err     chan error
	errOnce sync.Once
}

// Wrap takes ownership of srv's lifecycle. It installs a ConnState hook;
// srv must not set its own.
func Wrap(srv *http.Server) *Server {
	s := &Server{
		srv:   srv,
		fresh: make(map[net.Conn]struct{}),
		err:   make(chan error, 1),
	}
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		s.mu.Lock()
		switch st {
		case http.StateNew:
			if s.closing {
				// Accepted in the window between Shutdown's reap snapshot
				// and the listener close: reject it now rather than letting
				// it re-arm the StateNew grace.
				s.mu.Unlock()
				_ = c.Close()
				return
			}
			s.fresh[c] = struct{}{}
		default:
			// Active, idle, hijacked, closed: the conn either carries (or
			// carried) a request or is gone — no longer ours to reap.
			delete(s.fresh, c)
		}
		s.mu.Unlock()
	}
	return s
}

// Start listens on addr and serves in the background. Fatal serve errors
// (anything but http.ErrServerClosed) are delivered on Err().
func (s *Server) Start(addr string) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return ErrAlreadyStarted
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.started = true
	s.mu.Unlock()
	go func() {
		if serr := s.srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			s.errOnce.Do(func() { s.err <- serr })
		}
	}()
	return nil
}

// Err delivers at most one fatal serve error. Operators (and the cmd
// mains) select on it next to their signal channel.
func (s *Server) Err() <-chan error { return s.err }

// Addr returns the bound address after Start ("" before).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: the listener closes, never-used
// conns are reaped immediately (see the package comment), and in-flight
// requests get until ctx to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	reap := make([]net.Conn, 0, len(s.fresh))
	for c := range s.fresh {
		reap = append(reap, c)
	}
	s.mu.Unlock()
	for _, c := range reap {
		_ = c.Close()
	}
	return s.srv.Shutdown(ctx)
}
