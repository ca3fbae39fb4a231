package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func newTestServer() *Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "pong")
	})
	return Wrap(&http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second})
}

func TestStartServesAndDoubleStartFails(t *testing.T) {
	s := newTestServer()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	resp, err := http.Get("http://" + s.Addr() + "/ping")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("body = %q, want pong", body)
	}
	if err := s.Start("127.0.0.1:0"); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start = %v, want ErrAlreadyStarted", err)
	}
}

// TestFatalServeErrorSurfaces kills the listener out from under the accept
// loop and requires the failure to land on Err() — the bug this package
// fixes is that pattern `go srv.Serve(ln)` silently discarding it.
func TestFatalServeErrorSurfaces(t *testing.T) {
	s := newTestServer()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	_ = ln.Close()
	select {
	case err := <-s.Err():
		if err == nil || !strings.Contains(err.Error(), "use of closed") {
			t.Fatalf("Err() delivered %v, want closed-listener error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fatal serve error never surfaced on Err()")
	}
}

// TestShutdownReapsNeverUsedConns is the regression test for the chaos-soak
// shutdown-deadline overrun: a connection that was dialed but never carried
// a request (an HTTP transport's spare) must not stall Shutdown for
// net/http's 5-second StateNew grace.
func TestShutdownReapsNeverUsedConns(t *testing.T) {
	s := newTestServer()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// A spare conn: dialed, zero bytes written — server-side StateNew.
	spare, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = spare.Close() }()
	// Let the accept + ConnState(StateNew) land before Shutdown snapshots.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.fresh)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("spare conn never reached StateNew")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a never-used conn: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Shutdown took %v; the spare conn should be reaped immediately", d)
	}
	// The reap must have actually closed it.
	_ = spare.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := spare.Read(make([]byte, 1)); err == nil {
		t.Fatal("spare conn still open after Shutdown")
	}
}

// neverRead fails the test if a refused body is touched at all.
type neverRead struct{ t *testing.T }

func (r neverRead) Read([]byte) (int, error) {
	r.t.Error("a body declared over the limit was read")
	return 0, io.EOF
}

func TestReadBodyBounds(t *testing.T) {
	if _, err := ReadBody(neverRead{t}, 1<<40, 1<<20); !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("declared over the limit: %v, want ErrBodyTooLarge", err)
	}
	if got, err := ReadBody(strings.NewReader("exactly"), 7, 7); err != nil || string(got) != "exactly" || cap(got) != 7 {
		t.Errorf("declared body at the limit: %q (cap %d), %v", got, cap(got), err)
	}
	if _, err := ReadBody(strings.NewReader("short"), 7, 7); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body shorter than declared: %v, want ErrUnexpectedEOF", err)
	}
	if got, err := ReadBody(strings.NewReader("chunked"), -1, 7); err != nil || string(got) != "chunked" {
		t.Errorf("undeclared body at the limit: %q, %v", got, err)
	}
	if _, err := ReadBody(strings.NewReader("chunked!"), -1, 7); !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("undeclared body over the limit: %v, want ErrBodyTooLarge", err)
	}
}
