package peas

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/searchengine"
)

// Errors returned by PEAS components.
var (
	ErrBadBlob = errors.New("peas: malformed encrypted blob")
)

// The payloads are X-Search's sealed plaintext, encoded by the same codec
// (core.AppendSecureRequest / core.AppendSecureReply): the client encrypts
// {"query": <OR-aggregated obfuscated query>, "count"} for the issuer, the
// issuer encrypts {"results", "err"} back.

// --- hybrid encryption (RSA-OAEP key wrap + AES-GCM payload) ---

// encryptKeyed encrypts plaintext for the issuer and returns the ephemeral
// AES key, which the client keeps to open the response (PEAS's reply path).
func encryptKeyed(pub *rsa.PublicKey, plaintext []byte) (key [32]byte, blob []byte, err error) {
	if _, err = rand.Read(key[:]); err != nil {
		return key, nil, err
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, key[:], nil)
	if err != nil {
		return key, nil, fmt.Errorf("peas: wrap key: %w", err)
	}
	ct, err := sealWithKey(key, plaintext)
	if err != nil {
		return key, nil, err
	}
	blob = make([]byte, 4+len(wrapped)+len(ct))
	binary.BigEndian.PutUint32(blob, uint32(len(wrapped)))
	copy(blob[4:], wrapped)
	copy(blob[4+len(wrapped):], ct)
	return key, blob, nil
}

// decryptBlob returns the plaintext and the ephemeral AES key so the issuer
// can encrypt the response under the same key (PEAS's reply path).
func decryptBlob(priv *rsa.PrivateKey, blob []byte) (plaintext []byte, key [32]byte, err error) {
	if len(blob) < 4 {
		return nil, key, ErrBadBlob
	}
	wl := int(binary.BigEndian.Uint32(blob))
	if wl <= 0 || 4+wl > len(blob) {
		return nil, key, ErrBadBlob
	}
	rawKey, err := rsa.DecryptOAEP(sha256.New(), nil, priv, blob[4:4+wl], nil)
	if err != nil {
		return nil, key, fmt.Errorf("peas: unwrap key: %w", err)
	}
	if len(rawKey) != 32 {
		return nil, key, ErrBadBlob
	}
	copy(key[:], rawKey)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, key, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, key, err
	}
	rest := blob[4+wl:]
	if len(rest) < gcm.NonceSize() {
		return nil, key, ErrBadBlob
	}
	pt, err := gcm.Open(nil, rest[:gcm.NonceSize()], rest[gcm.NonceSize():], nil)
	if err != nil {
		return nil, key, fmt.Errorf("peas: open payload: %w", err)
	}
	return pt, key, nil
}

func sealWithKey(key [32]byte, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(nonce, nonce, plaintext, nil), nil
}

func openWithKey(key [32]byte, blob []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize() {
		return nil, ErrBadBlob
	}
	pt, err := gcm.Open(nil, blob[:gcm.NonceSize()], blob[gcm.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("peas: open response: %w", err)
	}
	return pt, nil
}

// --- Issuer ---

// Issuer is PEAS's second proxy: it decrypts queries (never seeing who sent
// them), forwards them to the search engine and encrypts results back.
type Issuer struct {
	priv     *rsa.PrivateKey
	engine   *searchengine.Client
	echoMode bool
	perList  int
	http     *http.Server
	ln       net.Listener
}

// NewIssuer creates an issuer with a fresh RSA-2048 key. engineURL may be
// empty when echo is true (capacity measurements).
func NewIssuer(engineURL string, echo bool) (*Issuer, error) {
	priv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("peas: issuer key: %w", err)
	}
	if engineURL == "" && !echo {
		return nil, fmt.Errorf("peas: engine URL required unless echo mode")
	}
	iss := &Issuer{priv: priv, echoMode: echo, perList: 20}
	if engineURL != "" {
		iss.engine = searchengine.NewClient(engineURL)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", iss.handleQuery)
	iss.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return iss, nil
}

// PublicKey returns the issuer's RSA public key for clients.
func (iss *Issuer) PublicKey() *rsa.PublicKey { return &iss.priv.PublicKey }

// Start serves on addr.
func (iss *Issuer) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("peas: issuer listen: %w", err)
	}
	iss.ln = ln
	go func() { _ = iss.http.Serve(ln) }()
	return nil
}

// Addr returns the bound address after Start.
func (iss *Issuer) Addr() string {
	if iss.ln == nil {
		return ""
	}
	return iss.ln.Addr().String()
}

// URL returns the issuer base URL.
func (iss *Issuer) URL() string { return "http://" + iss.Addr() }

// Shutdown stops the issuer.
func (iss *Issuer) Shutdown(ctx context.Context) error { return iss.http.Shutdown(ctx) }

func (iss *Issuer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	sealed, err := iss.Process(r.Context(), blob)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(sealed)
}

// Process executes the issuer's work for one encrypted query blob: RSA
// unwrap, engine round trip (or echo), AES seal of the response. Exposed
// so capacity experiments can drive the issuer without the HTTP hop.
func (iss *Issuer) Process(ctx context.Context, blob []byte) ([]byte, error) {
	pt, key, err := decryptBlob(iss.priv, blob)
	if err != nil {
		return nil, err
	}
	query, count, err := core.ParseSecureRequest(pt)
	if err != nil {
		return nil, fmt.Errorf("peas: bad payload: %w", err)
	}
	var (
		reply  []core.Result
		errstr string
	)
	if iss.echoMode {
		reply = []core.Result{}
	} else {
		if count <= 0 || count > 100 {
			count = iss.perList
		}
		results, err := iss.engine.Search(ctx, query, count)
		if err != nil {
			errstr = err.Error()
		} else {
			reply = make([]core.Result, len(results))
			for i, res := range results {
				reply[i] = core.Result{URL: res.URL, Title: res.Title, Snippet: res.Snippet}
			}
		}
	}
	return sealWithKey(key, core.AppendSecureReply(nil, reply, errstr))
}

// --- Receiver ---

// Receiver is PEAS's first proxy: it sees client identities but only
// relays opaque ciphertext to the issuer, providing unlinkability as long
// as it does not collude with the issuer.
type Receiver struct {
	issuerURL string
	client    *http.Client
	http      *http.Server
	ln        net.Listener
}

// NewReceiver builds a receiver relaying to the issuer.
func NewReceiver(issuerURL string) (*Receiver, error) {
	if issuerURL == "" {
		return nil, fmt.Errorf("peas: issuer URL required")
	}
	rec := &Receiver{
		issuerURL: issuerURL,
		client:    &http.Client{Timeout: 30 * time.Second},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/relay", rec.handleRelay)
	rec.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return rec, nil
}

// Start serves on addr.
func (rec *Receiver) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("peas: receiver listen: %w", err)
	}
	rec.ln = ln
	go func() { _ = rec.http.Serve(ln) }()
	return nil
}

// Addr returns the bound address after Start.
func (rec *Receiver) Addr() string {
	if rec.ln == nil {
		return ""
	}
	return rec.ln.Addr().String()
}

// URL returns the receiver base URL.
func (rec *Receiver) URL() string { return "http://" + rec.Addr() }

// Shutdown stops the receiver.
func (rec *Receiver) Shutdown(ctx context.Context) error { return rec.http.Shutdown(ctx) }

func (rec *Receiver) handleRelay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Deliberately drop all client identity before forwarding.
	blob, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		rec.issuerURL+"/query", bytes.NewReader(blob))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := rec.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer func() { _ = resp.Body.Close() }()
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// --- Client ---

// ClientConfig parameterizes a PEAS client.
type ClientConfig struct {
	// ReceiverURL is the first proxy's base URL.
	ReceiverURL string
	// IssuerKey is the issuer's RSA public key.
	IssuerKey *rsa.PublicKey
	// Matrix generates fake queries; required when K > 0.
	Matrix *CoMatrix
	// K is the number of fake queries.
	K int
	// Count is the per-query result budget (default 20).
	Count int
	// Seed fixes fake generation.
	Seed uint64
	// HTTPClient allows transport injection; nil uses a default.
	HTTPClient *http.Client
	// Transport, when set, replaces the HTTP receiver path entirely:
	// the encrypted blob is handed to it and its return value is the
	// issuer's sealed response. Used by in-process capacity experiments;
	// the unlinkability property then depends on the caller's plumbing.
	Transport func(ctx context.Context, blob []byte) ([]byte, error)
}

// Client is a PEAS client: it obfuscates locally and talks to the receiver.
type Client struct {
	cfg    ClientConfig
	client *http.Client

	mu  sync.Mutex
	rng *mrand.Rand
}

// NewClient validates cfg.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ReceiverURL == "" && cfg.Transport == nil {
		return nil, fmt.Errorf("peas: receiver URL (or Transport) required")
	}
	if cfg.IssuerKey == nil {
		return nil, fmt.Errorf("peas: issuer key required")
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("peas: negative k")
	}
	if cfg.K > 0 && cfg.Matrix == nil {
		return nil, fmt.Errorf("peas: co-occurrence matrix required for k > 0")
	}
	if cfg.Count <= 0 {
		cfg.Count = 20
	}
	httpClient := cfg.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Client{
		cfg:    cfg,
		client: httpClient,
		rng:    mrand.New(mrand.NewPCG(seed, seed^0x2545f4914f6cdd1d)),
	}, nil
}

// Obfuscate builds the OR-aggregated query: k co-occurrence fakes plus the
// original at a random position. Exposed for the privacy experiments.
func (c *Client) Obfuscate(query string) (core.ObfuscatedQuery, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nTerms := len(strings.Fields(query))
	if nTerms < 1 {
		nTerms = 1
	}
	fakes := make([]string, 0, c.cfg.K)
	for i := 0; i < c.cfg.K; i++ {
		fq, err := c.cfg.Matrix.FakeQuery(c.rng, nTerms)
		if err != nil {
			return core.ObfuscatedQuery{}, err
		}
		fakes = append(fakes, fq)
	}
	pos := 0
	if len(fakes) > 0 {
		pos = c.rng.IntN(len(fakes) + 1)
	}
	subs := make([]string, 0, len(fakes)+1)
	subs = append(subs, fakes[:pos]...)
	subs = append(subs, query)
	subs = append(subs, fakes[pos:]...)
	return core.ObfuscatedQuery{Subqueries: subs, OriginalIndex: pos}, nil
}

// Search runs one private query through the PEAS chain and returns results
// filtered back down to the original query.
func (c *Client) Search(ctx context.Context, query string) ([]core.Result, error) {
	oq, err := c.Obfuscate(query)
	if err != nil {
		return nil, err
	}
	key, blob, err := encryptKeyed(c.cfg.IssuerKey, core.AppendSecureRequest(nil, oq.Query(), c.cfg.Count))
	if err != nil {
		return nil, err
	}
	var sealed []byte
	if c.cfg.Transport != nil {
		sealed, err = c.cfg.Transport(ctx, blob)
		if err != nil {
			return nil, fmt.Errorf("peas: transport: %w", err)
		}
	} else {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.cfg.ReceiverURL+"/relay", bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("peas: relay: %w", err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("peas: receiver status %d", resp.StatusCode)
		}
		sealed, err = io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		if err != nil {
			return nil, err
		}
	}
	respPT, err := openWithKey(key, sealed)
	if err != nil {
		return nil, err
	}
	results, errstr, err := core.ParseSecureReply(respPT, 0)
	if err != nil {
		return nil, fmt.Errorf("peas: response payload: %w", err)
	}
	if errstr != "" {
		return nil, fmt.Errorf("peas: issuer error: %s", errstr)
	}
	// Client-side filtering: PEAS clients know which sub-query was real.
	return core.FilterResults(oq.Original(), oq.Fakes(), results), nil
}
