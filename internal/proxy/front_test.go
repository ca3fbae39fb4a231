package proxy

import (
	"net/http"
	"strings"
	"testing"
)

// The node's HTTP front keeps what its per-route handlers did before they
// became one: refused calls are counted, a padded query reaches the
// enclave as sent, and a well-formed secure body for a session the node
// does not know is the node's failure (502), not the client's.
func TestHTTPFrontKeepsNodeBehaviour(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.CacheBytes = 1 << 20 })
	base := st.proxy.URL()
	status := func(resp *http.Response, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(http.Get(base + "/search?q=+")); got != http.StatusBadRequest {
		t.Errorf("blank q: status %d, want 400", got)
	}
	if s := st.proxy.Stats(); s.Requests != 1 || s.Errors != 1 {
		t.Errorf("blank q counted requests=%d errors=%d, want 1 and 1", s.Requests, s.Errors)
	}
	for _, route := range []string{"/handshake", "/secure"} {
		if got := status(http.Post(base+route, "application/json", strings.NewReader("{"))); got != http.StatusBadRequest {
			t.Errorf("%s malformed body: status %d, want 400", route, got)
		}
	}
	if s := st.proxy.Stats(); s.Requests != 1 || s.Errors != 3 {
		t.Errorf("malformed bodies counted requests=%d errors=%d, want 1 and 3", s.Requests, s.Errors)
	}

	if got, _ := postSecure(t, base, "nope", []byte("not a record")); got != http.StatusBadGateway {
		t.Errorf("secure body for an unknown session: status %d, want 502", got)
	}

	plainSearch(t, base, "chicken recipe")
	plainSearch(t, base, " chicken recipe ")
	if s := st.proxy.Stats(); s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Errorf("padded query: cache hits=%d misses=%d, want 0 and 2 (padding is part of the key)", s.CacheHits, s.CacheMisses)
	}
}
