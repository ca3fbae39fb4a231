package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"xsearch/internal/client"
	"xsearch/internal/mux"
)

// The node's HTTP front keeps what its per-route handlers did before they
// became one: refused calls are counted, and a well-formed secure body for
// a session the node does not know is the node's failure (502), not the
// client's. It serves no plain query: GET /search is not a route, and a
// probe of it reaches no request counter. A padded query reaches the
// enclave as sent.
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

	if got := status(http.Get(base + "/search?q=chicken+recipe")); got != http.StatusNotFound {
		t.Errorf("GET /search: status %d, want 404", got)
	}
	if s := st.proxy.Stats(); s.Requests != 0 || s.Errors != 0 {
		t.Errorf("GET /search counted requests=%d errors=%d, want 0 and 0", s.Requests, s.Errors)
	}
	for _, route := range []string{"/handshake", "/secure"} {
		if got := status(http.Post(base+route, "application/json", strings.NewReader("{"))); got != http.StatusBadRequest {
			t.Errorf("%s malformed body: status %d, want 400", route, got)
		}
	}
	if s := st.proxy.Stats(); s.Requests != 0 || s.Errors != 2 {
		t.Errorf("malformed bodies counted requests=%d errors=%d, want 0 and 2", s.Requests, s.Errors)
	}

	if got, _ := postSecure(t, base, "nope", []byte("not a record")); got != http.StatusBadGateway {
		t.Errorf("secure body for an unknown session: status %d, want 502", got)
	}

	plainSearch(t, st.proxy, "chicken recipe")
	plainSearch(t, st.proxy, " chicken recipe ")
	if s := st.proxy.Stats(); s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Errorf("padded query: cache hits=%d misses=%d, want 0 and 2 (padding is part of the key)", s.CacheHits, s.CacheMisses)
	}
}

// A secure call's session id and record alias the body it arrived in, so
// nothing may keep them past the call: on either engine stage, a body
// scribbled over as soon as ServeCall returns leaves the reply it returned
// opening, and the session serving the next call.
func TestSecureCallKeepsNoneOfItsBody(t *testing.T) {
	forEachStage(t, func(t *testing.T, async bool) {
		st := newTestStack(t, func(c *Config) { c.AsyncOcalls = async })
		sess := openSecureSession(t, st.proxy)
		for i := 0; i < 3; i++ {
			pt, err := json.Marshal(secureRequest{Query: fmt.Sprintf("chicken recipe %d", i)})
			if err != nil {
				t.Fatal(err)
			}
			record, err := sess.channel.Seal(pt)
			if err != nil {
				t.Fatal(err)
			}
			// Room to spare, as a pooled read buffer has: a reply written
			// into the body's storage would be scribbled over too.
			body := client.AppendSecureBody(make([]byte, 0, 64<<10), sess.session, record)
			reply, err := ServeCall(context.Background(), st.proxy, mux.KindSecure, body)
			for j := range body {
				body[j] = 0xff
			}
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if _, err := sess.channel.Open(reply); err != nil {
				t.Fatalf("call %d: the reply does not open once its body is scribbled over: %v", i, err)
			}
		}
	})
}
