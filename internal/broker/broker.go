// Package broker is the client-side query broker (§4.2): a local daemon in
// the user's trust domain, and besides the enclave the only component that
// sees the user's cleartext query. It keeps its Config, the local Server
// for the user's web client, and the two transports (an HTTP POST per call,
// or one multiplexed conn) its one attested internal/client session rides.
package broker

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/client"
	"xsearch/internal/core"
	"xsearch/internal/mux"
	"xsearch/internal/serve"
)

// ErrProxyStatus marks a call the proxy refused (an HTTP 502, a mux stream
// error): the client's error, under the broker's name. Any other status is
// the broker's own fault and a plain error.
var ErrProxyStatus = client.ErrRefused

// Config parameterizes a broker.
type Config struct {
	// ProxyURL is the X-Search node's base URL.
	ProxyURL string
	// ServiceKey is the pinned attestation-service signing key.
	ServiceKey ed25519.PublicKey
	// Policy is the enclave acceptance policy (measurements/signers).
	Policy attestation.Policy
	// HTTPClient allows injecting transports (e.g. netsim delays); nil
	// uses a default with sane timeouts.
	HTTPClient *http.Client
	// Count is the default result count per query (default 20).
	Count int
	// Transport selects the carrier: "http" (default, one POST per call) or
	// "mux" (one multiplexed TCP conn to MuxAddr, a stream per call). A
	// dropped mux conn is re-dialed without re-attestation: the channel
	// keys live here and in the enclave, and the session id names its shard.
	Transport string
	// MuxAddr is the gateway's raw-TCP mux address (host:port); required
	// when Transport is "mux".
	MuxAddr string
}

// Broker is an attested client of one X-Search node: an internal/client
// session (Connect, Connected, Search) over the configured transport.
type Broker struct {
	*client.Client
	rd *mux.Redialer // non-nil on the "mux" transport
}

// New validates cfg and returns an unconnected broker.
func New(cfg Config) (*Broker, error) {
	if cfg.ProxyURL == "" {
		return nil, fmt.Errorf("broker: ProxyURL required")
	}
	if len(cfg.ServiceKey) == 0 {
		return nil, fmt.Errorf("broker: ServiceKey required")
	}
	if len(cfg.Policy.AcceptedMeasurements) == 0 && len(cfg.Policy.AcceptedSigners) == 0 {
		return nil, fmt.Errorf("broker: empty attestation policy")
	}
	if cfg.Count <= 0 {
		cfg.Count = 20
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	b := &Broker{}
	var caller client.Caller = &httpCaller{url: cfg.ProxyURL, client: hc}
	switch cfg.Transport {
	case "", "http":
	case "mux":
		if cfg.MuxAddr == "" {
			return nil, fmt.Errorf("broker: Transport \"mux\" requires MuxAddr")
		}
		b.rd = mux.NewRedialer(func(ctx context.Context) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", cfg.MuxAddr)
		})
		caller = muxCaller{b.rd}
	default:
		return nil, fmt.Errorf("broker: unknown transport %q (want http or mux)", cfg.Transport)
	}
	b.Client = client.New(caller, attestation.Verifier{ServiceKey: cfg.ServiceKey, Policy: cfg.Policy}, cfg.Count)
	return b, nil
}

// Close releases the transport conn on the mux transport (no-op on
// HTTP).
func (b *Broker) Close() error {
	if b.rd != nil {
		return b.rd.Close()
	}
	return nil
}

// Reconnects counts transparent transport re-dials (mux transport
// only): conns replaced under live sessions without re-attestation.
func (b *Broker) Reconnects() uint64 {
	if b.rd == nil {
		return 0
	}
	return b.rd.Reconnects()
}

// KillConn force-drops the current transport conn (mux transport
// only) — the chaos/ablation hook simulating an edge LB closing the
// conn mid-session. The next call re-dials and resumes.
func (b *Broker) KillConn() {
	if b.rd != nil {
		b.rd.KillConn()
	}
}

// muxCaller carries each call as one stream on the re-dialing mux conn; a
// stream error is the gateway's refusal unless it blames the caller (a 400).
type muxCaller struct{ rd *mux.Redialer }

func (m muxCaller) Call(ctx context.Context, kind byte, body, _ []byte) ([]byte, error) {
	resp, err := m.rd.Call(ctx, kind, body)
	if err != nil {
		var remote *mux.RemoteError // declared here: &remote escapes
		if errors.As(err, &remote) && !remote.CallerFault {
			err = fmt.Errorf("%w: %s", ErrProxyStatus, remote.Msg)
		}
	}
	return resp, err
}

// maxReplyBytes caps what httpCaller reads of a reply: the proxy is
// Byzantine, and the largest honest reply is a sealed list cut from an
// engine body the enclave itself caps at 8 MiB.
const maxReplyBytes = 8 << 20

// httpCaller carries each call as one HTTP POST to the kind's route and
// reads the reply into dst's storage when it has room; a 502 is the
// proxy's refusal, any other status but 200 a plain error.
type httpCaller struct {
	url    string
	client *http.Client
}

func (h *httpCaller) Call(ctx context.Context, kind byte, body, dst []byte) ([]byte, error) {
	path, contentType := "/handshake", "application/json"
	if kind == mux.KindSecure {
		path, contentType = "/secure", "application/octet-stream"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("broker: %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusBadGateway {
		return nil, fmt.Errorf("%w: %s %d", ErrProxyStatus, path, resp.StatusCode)
	} else if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("broker: %s: status %d", path, resp.StatusCode)
	}
	out, err := serve.ReadBody(dst, resp.Body, resp.ContentLength, maxReplyBytes)
	if err != nil {
		return nil, fmt.Errorf("broker: %s: %w", path, err)
	}
	return out, nil
}

// maxBodyBytes caps request bodies on the local endpoint. The query
// rides the URL, so any body at all is noise — but an unbounded reader
// still lets a misbehaving local client balloon the daemon's memory.
const maxBodyBytes = 64 << 10

// Server exposes the broker to the local web client over loopback HTTP:
// GET /search?q=... returns the filtered results as JSON. This is the
// "local daemon process executing alongside the client's Web browser".
type Server struct {
	broker *Broker
	front  *serve.Server
}

// NewServer wraps a (connected) broker.
func NewServer(b *Broker) *Server {
	s := &Server{broker: b}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	s.front = serve.Wrap(&http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second})
	return s
}

// Start listens on addr. A second Start returns serve.ErrAlreadyStarted;
// fatal accept-loop errors surface on ServeErr instead of being
// silently discarded.
func (s *Server) Start(addr string) error {
	if err := s.front.Start(addr); err != nil {
		if errors.Is(err, serve.ErrAlreadyStarted) {
			return fmt.Errorf("broker: server %w", serve.ErrAlreadyStarted)
		}
		return fmt.Errorf("broker: listen %s: %w", addr, err)
	}
	return nil
}

// ServeErr delivers at most one fatal serve error (the accept loop died
// after a successful Start).
func (s *Server) ServeErr() <-chan error { return s.front.Err() }

// Addr returns the bound address after Start.
func (s *Server) Addr() string { return s.front.Addr() }

// Shutdown stops the local endpoint.
func (s *Server) Shutdown(ctx context.Context) error { return s.front.Shutdown(ctx) }

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	results, err := s.broker.Search(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(core.AppendResultsJSON(nil, results), '\n'))
}
