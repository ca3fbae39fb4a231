// Package broker implements the client-side query broker (§4.2): a local
// daemon running in the user's trust domain that attests the remote
// X-Search enclave, establishes the encrypted tunnel terminating inside it,
// and exposes a plain local HTTP endpoint to the user's web client. The
// broker is the only component besides the enclave that ever sees the
// user's cleartext query.
package broker

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/core"
	"xsearch/internal/mux"
	"xsearch/internal/proxy"
	"xsearch/internal/securechannel"
	"xsearch/internal/serve"
)

// Errors returned by the broker.
var (
	ErrNotConnected = errors.New("broker: not connected; call Connect first")
	ErrProxyStatus  = errors.New("broker: proxy returned non-OK status")
)

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
	// Transport selects the carrier for proxy RPCs: "http" (default, one
	// HTTP request per call) or "mux" (one long-lived multiplexed TCP conn
	// to MuxAddr carrying every call as a logical stream, with the mux
	// defaults the gateway also runs). On mux a dropped conn is re-dialed
	// and the attested channel resumed without re-attestation: the channel
	// keys live here and in the enclave, so only the carrier needs
	// replacing.
	Transport string
	// MuxAddr is the gateway's raw-TCP mux address (host:port); required
	// when Transport is "mux".
	MuxAddr string
}

// Broker is an attested client of one X-Search node.
type Broker struct {
	cfg    Config
	client *http.Client
	rd     *mux.Redialer // non-nil on the "mux" transport

	mu      sync.Mutex
	channel *securechannel.Channel
	session string
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
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	b := &Broker{cfg: cfg, client: client}
	switch cfg.Transport {
	case "", "http":
	case "mux":
		if cfg.MuxAddr == "" {
			return nil, fmt.Errorf("broker: Transport \"mux\" requires MuxAddr")
		}
		// The redialer announces on reconnect how many live attested
		// sessions ride the new conn — resumed without re-attestation.
		b.rd = mux.NewRedialer(func(ctx context.Context) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", cfg.MuxAddr)
		}, func() int {
			if b.Connected() {
				return 1
			}
			return 0
		})
	default:
		return nil, fmt.Errorf("broker: unknown transport %q (want http or mux)", cfg.Transport)
	}
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

// Connect performs the attested handshake: it verifies the proxy enclave's
// quote (measurement policy, debug bit, nonce freshness) and checks that
// the channel key is the one bound inside the attestation report before
// keying the channel. On success subsequent Search calls use the tunnel.
func (b *Broker) Connect(ctx context.Context) error {
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		return err
	}
	offerJSON, err := hs.Offer().Marshal()
	if err != nil {
		return err
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("broker: nonce: %w", err)
	}
	reqBody, err := json.Marshal(struct {
		Offer json.RawMessage `json:"offer"`
		Nonce []byte          `json:"nonce"`
	}{offerJSON, nonce})
	if err != nil {
		return err
	}
	respBody, err := b.rpc(ctx, mux.KindHandshake, reqBody, nil)
	if errors.Is(err, mux.ErrConnLost) {
		// The conn died under the handshake. Re-posting the same offer is
		// safe — at worst the server minted a session the broker never
		// uses, which ages out of its FIFO table.
		respBody, err = b.rpc(ctx, mux.KindHandshake, reqBody, nil)
	}
	if err != nil {
		return err
	}
	var resp proxy.HandshakeResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("broker: handshake response: %w", err)
	}

	serverOffer, err := securechannel.UnmarshalOffer(resp.Offer)
	if err != nil {
		return err
	}
	// Verify attestation BEFORE completing the channel: the report must
	// bind exactly the server public key we are about to use.
	var vr attestation.VerificationReport
	if err := json.Unmarshal(resp.VerificationReport, &vr); err != nil {
		return fmt.Errorf("broker: verification report: %w", err)
	}
	verifier := &attestation.Verifier{ServiceKey: b.cfg.ServiceKey, Policy: b.cfg.Policy}
	expect := attestation.BindKey(serverOffer.PubKey)
	if _, err := verifier.Verify(&vr, nonce, &expect); err != nil {
		return fmt.Errorf("broker: attestation failed: %w", err)
	}

	channel, err := hs.Complete(serverOffer)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.channel = channel
	b.session = resp.Session
	b.mu.Unlock()
	return nil
}

// Connected reports whether an attested channel is established.
func (b *Broker) Connected() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.channel != nil
}

// Search sends one query through the attested tunnel and returns the
// filtered results. If the proxy no longer knows the session (restart or
// session-table eviction), the broker transparently re-attests once and
// retries — the paper's broker is a long-lived daemon and proxies are
// Byzantine, so session loss is an expected event, not an error.
func (b *Broker) Search(ctx context.Context, query string) ([]core.Result, error) {
	results, err := b.searchOnce(ctx, query)
	if errors.Is(err, mux.ErrConnLost) {
		// The transport conn died mid-call, but the attested channel
		// survived — its keys live here and in the enclave, not in the
		// carrier. Re-seal the query (a fresh record with a fresh sequence
		// number, so it is safe whether or not the lost call was
		// processed) and retry over the re-dialed conn. No re-attestation.
		results, err = b.searchOnce(ctx, query)
	}
	if err == nil || !errors.Is(err, ErrProxyStatus) {
		return results, err
	}
	// Session likely lost. Re-attest (full verification again) and retry.
	if rerr := b.Connect(ctx); rerr != nil {
		return nil, fmt.Errorf("broker: reconnect after %v: %w", err, rerr)
	}
	return b.searchOnce(ctx, query)
}

// replyBufs recycles the HTTP transport's secure-reply buffers: a reply is
// read, opened and parsed in one, and ParseSecureReply copies out what the
// results keep before the buffer goes back. One grown past maxPooledReply
// is left to the collector.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

func (b *Broker) searchOnce(ctx context.Context, query string) ([]core.Result, error) {
	b.mu.Lock()
	channel, session := b.channel, b.session
	b.mu.Unlock()
	if channel == nil {
		return nil, ErrNotConnected
	}
	// The query is sealed where it is written, inside the body that carries
	// it (room for a query needing no escapes).
	body := proxy.AppendSecureBody(make([]byte, 0, 1+len(session)+securechannel.HeaderSize+len(query)+64+securechannel.SealRoom), session, nil)
	at := len(body)
	body = core.AppendSecureRequest(append(body, make([]byte, securechannel.HeaderSize)...), query, b.cfg.Count)
	body = channel.SealAt(body, at)

	buf := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(buf)
	reply, err := b.rpc(ctx, mux.KindSecure, body, *buf)
	if err != nil {
		return nil, err
	}
	if b.rd == nil && cap(reply) <= maxPooledReply {
		*buf = reply[:0] // ReadBody grows the buffer when a reply outsizes it
	}
	// Opened where it was read: the pooled buffer over HTTP, the frame
	// payload a mux call allocates for its caller.
	respPT, err := channel.OpenInPlace(reply)
	if err != nil {
		return nil, fmt.Errorf("broker: open response: %w", err)
	}
	results, errstr, err := core.ParseSecureReply(respPT, b.cfg.Count)
	if err != nil {
		return nil, fmt.Errorf("broker: response payload: %w", err)
	}
	if errstr != "" {
		return nil, fmt.Errorf("broker: proxy error: %s", errstr)
	}
	return results, nil
}

// rpc issues one proxy call of the given stream kind over the configured
// transport — a logical stream on the multiplexed conn, or an HTTP POST to
// the kind's route — and returns the reply body (over HTTP, read into dst's
// storage when it has room). Error classes are kept
// distinct because the recovery differs: a remote refusal maps onto
// ErrProxyStatus (the re-attest path — the server answered, the session
// is likely gone), while transport loss stays mux.ErrConnLost (the
// re-seal-and-retry path — the server may never have answered, but the
// channel is intact).
func (b *Broker) rpc(ctx context.Context, kind byte, body, dst []byte) ([]byte, error) {
	path, contentType := "/handshake", "application/json"
	if kind == mux.KindSecure {
		path, contentType = "/secure", "application/octet-stream"
	}
	if b.rd == nil {
		return b.post(ctx, path, contentType, body, dst)
	}
	resp, err := b.rd.Call(ctx, kind, body)
	if err != nil {
		var remote *mux.RemoteError
		if errors.As(err, &remote) {
			return nil, fmt.Errorf("%w: %s: %s", ErrProxyStatus, path, remote.Msg)
		}
		return nil, fmt.Errorf("broker: %s: %w", path, err)
	}
	return resp, nil
}

// maxReplyBytes caps what post reads of a reply: the proxy is Byzantine,
// and the largest honest reply is a sealed list cut from an engine body
// the enclave itself caps at 8 MiB.
const maxReplyBytes = 8 << 20

// post sends one HTTP POST and returns the reply body, read into dst's
// storage when it has room.
func (b *Broker) post(ctx context.Context, path, contentType string, body, dst []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		b.cfg.ProxyURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("broker: %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %s %d", ErrProxyStatus, path, resp.StatusCode)
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
