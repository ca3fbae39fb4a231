package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"xsearch/internal/core"
	"xsearch/internal/mux"
	"xsearch/internal/serve"
)

// Front is the client-facing surface a client edge drives: one node
// (*Proxy) or a fleet's session-routing gateway. The HTTP handlers and the
// multiplexed edge both reach it through ServeCall, so a client cannot
// tell the transports — or a node from a fleet — apart past the edge.
type Front interface {
	ServeQuery(ctx context.Context, query string) ([]core.Result, error)
	Handshake(ctx context.Context, offer json.RawMessage, nonce []byte) (*HandshakeResponse, error)
	Secure(ctx context.Context, session string, record []byte) ([]byte, error)
}

// HandshakeResponse is what the front returns for a handshake call.
type HandshakeResponse struct {
	// Offer is the enclave's securechannel offer.
	Offer json.RawMessage `json:"offer"`
	// Session identifies the established channel on subsequent requests.
	Session string `json:"session"`
	// VerificationReport is the attestation service's signed statement
	// covering the enclave quote (bound to Offer's public key).
	VerificationReport []byte `json:"verification_report"`
}

// SecureEnvelope was the JSON/base64 body of HTTP /secure before both edges
// carried AppendSecureBody. The type stays, unused by the module, because
// the repo benchmark (bench/) still sizes its mux.call rung with it.
type SecureEnvelope struct {
	Session string `json:"session"`
	Record  []byte `json:"record"`
}

// maxSessionIDBytes caps the session id of a secure body. Ids are 32 hex
// digits; the cap also turns an old-format JSON body (first byte '{', 123)
// into a clean refusal.
const maxSessionIDBytes = 64

// AppendSecureBody encodes the request of a secure call — a KindSecure mux
// stream or an HTTP POST /secure — onto dst: len(1) ‖ session id ‖ raw
// sealed record.
func AppendSecureBody(dst []byte, session string, record []byte) []byte {
	dst = append(dst, byte(len(session)))
	dst = append(dst, session...)
	return append(dst, record...)
}

// ParseSecureBody reverses AppendSecureBody on hostile input. The record
// aliases body.
func ParseSecureBody(body []byte) (session string, record []byte, err error) {
	if len(body) == 0 || body[0] == 0 || body[0] > maxSessionIDBytes || len(body) <= 1+int(body[0]) {
		return "", nil, BadRequest("bad secure body")
	}
	n := 1 + int(body[0])
	return string(body[1:n]), body[n:], nil
}

// BadRequest is a ServeCall failure that is the client's doing — a
// malformed body, a missing query — as opposed to the node's or the
// engine's: HTTP 400 instead of 502.
type BadRequest string

func (e BadRequest) Error() string { return string(e) }

// ServeCall runs one client call against f: decode the body of the given
// kind (the mux stream kinds, which map one-to-one onto the HTTP routes),
// call, and return the reply body for the edge to send as it stands — an
// HTTP response, a mux frame. Secure: AppendSecureBody in, the raw sealed
// record out. Handshake: {"offer": <client offer JSON>, "nonce": <base64>}
// in, a HandshakeResponse out. The plain kind has no body to decode, only
// the query text, and replies with the result list as JSON.
func ServeCall(ctx context.Context, f Front, kind byte, query string, body []byte) ([]byte, error) {
	switch kind {
	case mux.KindSecure:
		session, record, err := ParseSecureBody(body)
		if err != nil {
			return nil, err
		}
		return f.Secure(ctx, session, record)
	case mux.KindHandshake:
		var req struct {
			Offer json.RawMessage `json:"offer"`
			Nonce []byte          `json:"nonce"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, BadRequest("bad handshake body")
		}
		resp, err := f.Handshake(ctx, req.Offer, req.Nonce)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	case mux.KindPlain:
		if strings.TrimSpace(query) == "" {
			return nil, BadRequest("missing query")
		}
		results, err := f.ServeQuery(ctx, query)
		if err != nil {
			return nil, err
		}
		if results == nil {
			results = []core.Result{}
		}
		return core.AppendResultsJSON(nil, results), nil
	default:
		return nil, BadRequest(fmt.Sprintf("unknown stream kind 0x%x", kind))
	}
}

// maxBodyBytes caps request bodies on the client-facing handlers. The
// front runs in the untrusted host, but an unbounded body still lets a
// hostile client balloon host memory and starve the fronting process;
// every legitimate body — a channel offer, a sealed query record — is a
// few KB.
const maxBodyBytes = 1 << 20

// HandleFront registers f's client routes on routes: GET /search?q= for
// third-party (curl/wget) clients, POST /handshake and POST /secure for
// brokers.
func HandleFront(routes *http.ServeMux, f Front) {
	routes.HandleFunc("/search", frontHandler(f, mux.KindPlain))
	routes.HandleFunc("/handshake", frontHandler(f, mux.KindHandshake))
	routes.HandleFunc("/secure", frontHandler(f, mux.KindSecure))
}

// frontHandler is the HTTP form of one call kind.
func frontHandler(f Front, kind byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var query string
		var body []byte
		if kind == mux.KindPlain {
			// The query reaches the enclave as sent: padding is part of
			// the history and cache key.
			query = r.URL.Query().Get("q")
		} else {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			// A body that cannot be read (over the cap, cut short) goes on
			// as no body, which ServeCall refuses as it does a bad one.
			body, _ = serve.ReadBody(r.Body, r.ContentLength, maxBodyBytes)
		}
		reply, err := ServeCall(r.Context(), f, kind, query, body)
		if err != nil {
			status, msg := http.StatusBadGateway, err.Error()
			var bad BadRequest
			if errors.As(err, &bad) {
				status = http.StatusBadRequest
				if kind == mux.KindPlain {
					msg = "missing q parameter"
				}
				if p, ok := f.(*Proxy); ok {
					p.countRefused(kind)
				}
			}
			http.Error(w, msg, status)
			return
		}
		if kind == mux.KindSecure {
			w.Header().Set("Content-Type", "application/octet-stream")
		} else {
			w.Header().Set("Content-Type", "application/json")
			reply = append(reply, '\n')
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = w.Write(reply)
	}
}

// countRefused keeps the node's counters for a client call refused at the
// front, before run could count it: a refused plain search is a request
// and an error, a malformed handshake or secure body an error.
func (p *Proxy) countRefused(kind byte) {
	if kind == mux.KindPlain {
		p.requests.Add(1)
	}
	p.errors.Add(1)
}
