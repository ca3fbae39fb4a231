// Package client is the client end of the attested channel (§4.2), the one
// piece of code outside the enclave that holds a query in the clear: it
// verifies the enclave's quote, seals each query where it is written and
// opens each reply where it was read. A Caller carries its calls (an HTTP
// POST, a mux stream, a front in this process), and one rule recovers a
// failed call whatever carried it: a lost carrier (mux.ErrConnLost) is
// re-sealed and retried once, since the channel keys live here and in the
// enclave; a refusal (ErrRefused: the session was evicted, or its shard
// died) is re-attested and retried, up to MaxReattests times, while each
// re-attestation succeeds and the context lives; a failure of the caller's
// own is returned as it stands. The edge's wire contract is here too.
package client

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/core"
	"xsearch/internal/mux"
	"xsearch/internal/securechannel"
)

// Errors returned by a client.
var (
	ErrNotConnected = errors.New("client: not connected; call Connect first")
	// ErrRefused marks a call the front refused for a reason a fresh session
	// can cure (an HTTP 502, a mux stream error), not for the caller's fault.
	ErrRefused = errors.New("client: front refused the call")
)

// MaxReattests bounds the re-attestations one Search makes, backing off
// from the second on, so a front that attests but refuses every call costs
// a caller with no deadline this many handshakes (about 0.5 s), not a spin.
const MaxReattests = 32

// MaxBodyBytes caps one call's body: the fronts read no more (a real body is
// a few KB), and Search refuses a query sealed past it instead of calling.
const MaxBodyBytes = 1 << 20

// Caller carries one call of a kind (mux.KindHandshake, mux.KindSecure) to
// a front and returns the reply body, which the client then owns; it may
// read the reply into dst's storage. A refusal wraps ErrRefused, a lost
// carrier mux.ErrConnLost.
type Caller interface {
	Call(ctx context.Context, kind byte, body, dst []byte) ([]byte, error)
}

// HandshakeRequest is the body of a handshake call: the client's
// securechannel offer and the nonce the verification report must echo.
type HandshakeRequest struct {
	Offer json.RawMessage `json:"offer"`
	Nonce []byte          `json:"nonce"`
}

// HandshakeResponse is a front's reply to a handshake call: the enclave's
// offer, the session id later calls name, and the attestation service's
// signed report on the quote binding the offer's key.
type HandshakeResponse struct {
	Offer              json.RawMessage `json:"offer"`
	Session            string          `json:"session"`
	VerificationReport []byte          `json:"verification_report"`
}

// AppendSecureBody encodes the request of a secure call — a KindSecure mux
// stream or an HTTP POST /secure — onto dst: len(1) ‖ session id ‖ raw
// sealed record.
func AppendSecureBody(dst []byte, session string, record []byte) []byte {
	dst = append(dst, byte(len(session)))
	dst = append(dst, session...)
	return append(dst, record...)
}

// ParseSecureBody reverses AppendSecureBody on hostile input; the record
// aliases body. An id is at most 64 bytes, which also refuses an old-format
// JSON body (first byte '{', 123).
func ParseSecureBody(body []byte) (session string, record []byte, ok bool) {
	if len(body) == 0 || body[0] == 0 || body[0] > 64 || len(body) <= 1+int(body[0]) {
		return "", nil, false
	}
	n := 1 + int(body[0])
	return string(body[1:n]), body[n:], true
}

// Client is an attested client of one front, holding one session at a time.
type Client struct {
	caller   Caller
	verifier attestation.Verifier
	count    int

	mu      sync.Mutex
	channel *securechannel.Channel
	session string
}

// New returns an unconnected client of the front caller reaches, asking for
// count results per query (0: the enclave's default).
func New(caller Caller, verifier attestation.Verifier, count int) *Client {
	return &Client{caller: caller, verifier: verifier, count: count}
}

// Connect performs the attested handshake: it verifies the quote (service
// signature, measurement policy, debug bit, nonce freshness) and checks that
// it binds the enclave's channel key before keying the channel with it.
func (c *Client) Connect(ctx context.Context) error {
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		return err
	}
	offer, _ := hs.Offer().Marshal() // a role and two byte slices: it cannot fail
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("client: nonce: %w", err)
	}
	body, _ := json.Marshal(HandshakeRequest{Offer: offer, Nonce: nonce})
	reply, err := c.caller.Call(ctx, mux.KindHandshake, body, nil)
	if errors.Is(err, mux.ErrConnLost) {
		reply, err = c.caller.Call(ctx, mux.KindHandshake, body, nil) // at worst an unused session ages out
	}
	if err != nil {
		return err
	}
	var resp HandshakeResponse
	var vr attestation.VerificationReport
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("client: handshake response: %w", err)
	}
	if err := json.Unmarshal(resp.VerificationReport, &vr); err != nil {
		return fmt.Errorf("client: verification report: %w", err)
	}
	peer, err := securechannel.UnmarshalOffer(resp.Offer)
	if err != nil {
		return err
	}
	expect := attestation.BindKey(peer.PubKey)
	if _, err := c.verifier.Verify(&vr, nonce, &expect); err != nil {
		return fmt.Errorf("client: attestation failed: %w", err)
	}
	channel, err := hs.Complete(peer)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.channel, c.session = channel, resp.Session
	c.mu.Unlock()
	return nil
}

// Connected reports whether an attested channel is established.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.channel != nil
}

// Search sends one query and returns the filtered results, recovering a
// failed call by the package's one rule. A failure the enclave sealed into
// its reply (engine down, blank query) is returned with its own text.
func (c *Client) Search(ctx context.Context, query string) ([]core.Result, error) {
	results, err := c.searchOnce(ctx, query)
	if errors.Is(err, mux.ErrConnLost) {
		results, err = c.searchOnce(ctx, query) // a fresh record, so safe either way
	}
	for n := 0; errors.Is(err, ErrRefused) && n < MaxReattests && ctx.Err() == nil; n++ {
		refusal := err
		if n > 0 { // a fresh session refused: callers fill the table faster than they use it
			select { // so back off, jittered, up to 32 ms
			case <-ctx.Done():
			case <-time.After(mrand.N(time.Millisecond << min(n, 5))):
			}
		}
		if err = c.Connect(ctx); err != nil {
			return nil, fmt.Errorf("client: reconnect after %w: %w", refusal, err)
		}
		results, err = c.searchOnce(ctx, query)
		if err != nil && ctx.Err() != nil && !errors.Is(err, ErrRefused) {
			err = fmt.Errorf("client: %w after %w", err, refusal) // the context ended the retry
		}
	}
	return results, err
}

// replyBufs recycles reply buffers: a reply is read, opened and parsed in
// one, and ParseSecureReply copies out what the results keep before it goes
// back. One grown past 64 KiB is left to the collector.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

func (c *Client) searchOnce(ctx context.Context, query string) ([]core.Result, error) {
	c.mu.Lock()
	channel, session := c.channel, c.session
	c.mu.Unlock()
	if channel == nil {
		return nil, ErrNotConnected
	}
	// Sealed inside the body that carries it (room for a query needing no
	// escapes).
	body := AppendSecureBody(make([]byte, 0, 1+len(session)+securechannel.HeaderSize+len(query)+64+securechannel.SealRoom), session, nil)
	at := len(body)
	body = core.AppendSecureRequest(append(body, make([]byte, securechannel.HeaderSize)...), query, c.count)
	body = channel.SealAt(body, at)
	if len(body) > MaxBodyBytes {
		return nil, fmt.Errorf("client: a %d-byte call is over the %d-byte cap", len(body), MaxBodyBytes)
	}

	buf := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(buf)
	reply, err := c.caller.Call(ctx, mux.KindSecure, body, *buf)
	if err != nil {
		return nil, err
	}
	if cap(reply) <= 64<<10 {
		*buf = reply[:0]
	}
	plaintext, err := channel.OpenInPlace(reply)
	if err != nil {
		return nil, fmt.Errorf("client: open reply: %w", err)
	}
	results, errstr, err := core.ParseSecureReply(plaintext, c.count)
	if err != nil {
		return nil, fmt.Errorf("client: reply payload: %w", err)
	}
	if errstr != "" {
		return nil, errors.New(errstr)
	}
	return results, nil
}
