package proxy

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"
)

// TestHandlersRejectOversizeBodies is the request-body-cap regression
// test: a client POSTing more than maxBodyBytes to the client-facing
// endpoints must get a clean 4xx, not balloon host memory or hang. A
// normally-sized request on the same server must still work.
func TestHandlersRejectOversizeBodies(t *testing.T) {
	p, err := New(Config{K: 1, EchoMode: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()

	oversize := bytes.Repeat([]byte("A"), maxBodyBytes+1024)
	for _, path := range []string{"/handshake", "/secure"} {
		resp, err := http.Post(p.URL()+path, "application/json", bytes.NewReader(oversize))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("POST %s with %d-byte body: status %d, want 4xx", path, len(oversize), resp.StatusCode)
		}
	}
	// The cap must not break legitimate traffic.
	sess := openSecureSession(t, p)
	if _, status := sess.search(t, p, "still works"); status != http.StatusOK {
		t.Fatalf("normal secure search after cap rejections: status %d", status)
	}
}
