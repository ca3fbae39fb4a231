package searchengine

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Server exposes an Engine over HTTP with a Bing-like interface:
//
//	GET /search?q=<query>&count=<n>
//
// responding with a JSON array of results. The client's remote address is
// the "source" identity the curious engine records — exactly the linkage
// X-Search's proxy hides.
type Server struct {
	engine *Engine
	http   *http.Server
	ln     net.Listener
	// Delay is an optional artificial processing delay injected per
	// request, used by the end-to-end latency experiment to model a real
	// engine's server-side time.
	Delay time.Duration
	// DelayFn, when set, supersedes Delay with a sampled per-request
	// delay (e.g. a lognormal model of engine processing time).
	DelayFn func() time.Duration
}

// NewServer wraps engine in an HTTP server; call Start to begin serving.
func NewServer(engine *Engine) *Server {
	s := &Server{engine: engine}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Start listens on addr ("127.0.0.1:0" picks a free port) and serves in a
// background goroutine until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("searchengine: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() {
		// http.ErrServerClosed is the normal shutdown signal.
		_ = s.http.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address, valid after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops the server gracefully.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	count := 20
	if c := r.URL.Query().Get("count"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n <= 0 || n > 100 {
			http.Error(w, "invalid count", http.StatusBadRequest)
			return
		}
		count = n
	}
	switch {
	case s.DelayFn != nil:
		if d := s.DelayFn(); d > 0 {
			time.Sleep(d)
		}
	case s.Delay > 0:
		time.Sleep(s.Delay)
	}
	source := r.RemoteAddr
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		source = host
	}
	results, err := s.engine.Search(source, q, count)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(results); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
}

// Client is a minimal search client for the HTTP API.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient builds a client for the engine at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// Search issues a query and decodes the result list.
func (c *Client) Search(ctx context.Context, query string, count int) ([]Result, error) {
	u := fmt.Sprintf("%s/search?q=%s&count=%d", c.BaseURL, urlQueryEscape(query), count)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("searchengine: build request: %w", err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("searchengine: do request: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("searchengine: status %d", resp.StatusCode)
	}
	var results []Result
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		return nil, fmt.Errorf("searchengine: decode: %w", err)
	}
	return results, nil
}

// urlQueryEscape escapes a query string for use in a URL query component.
func urlQueryEscape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == ' ':
			b.WriteByte('+')
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '~':
			b.WriteRune(r)
		default:
			for _, by := range []byte(string(r)) {
				fmt.Fprintf(&b, "%%%02X", by)
			}
		}
	}
	return b.String()
}
