package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"xsearch/internal/client"
	"xsearch/internal/mux"
	"xsearch/internal/serve"
)

// Front is the client-facing surface a client edge drives: one node
// (*Proxy) or a fleet's session-routing gateway. The HTTP handlers and the
// multiplexed edge both reach it through ServeCall, so a client cannot
// tell the transports — or a node from a fleet — apart past the edge. It
// carries sealed calls only, so the untrusted host never sees a query in
// the clear; a caller in the same process is an internal/client session
// over InProcess (as ServeQuery is), attested and minted like a broker's.
type Front interface {
	Handshake(ctx context.Context, offer json.RawMessage, nonce []byte) (*HandshakeResponse, error)
	// SecureCall serves one sealed record on the session the id names; both
	// alias the call's body, so nothing may keep them after it returns.
	SecureCall(ctx context.Context, session, record []byte) ([]byte, error)
	// Refused counts one call ServeCall refused before reaching the
	// front (a BadRequest) as one of the front's errors.
	Refused()
}

// HandshakeResponse is client.HandshakeResponse under the name bench/trace.go spells.
type HandshakeResponse = client.HandshakeResponse

// SecureEnvelope was the JSON/base64 body of HTTP /secure before both edges
// carried client.AppendSecureBody. It stays, unused by the module, because
// bench/trace.go still sizes its mux.call rung with it.
type SecureEnvelope struct {
	Session string `json:"session"`
	Record  []byte `json:"record"`
}

// BadRequest is a ServeCall failure that is the client's doing — a
// malformed body, an unknown kind — as opposed to the node's or the
// engine's: HTTP 400 instead of 502, and (CallerFault) a mux close with
// FlagCallerFault.
type BadRequest string

func (e BadRequest) Error() string   { return string(e) }
func (BadRequest) CallerFault() bool { return true }

// ServeCall runs one client call against f: decode the body of the given
// kind (the mux stream kinds, which map one-to-one onto the HTTP routes),
// call, and return the reply body for the edge to send as it stands — an
// HTTP response, a mux frame. Secure: client.AppendSecureBody in, the raw
// sealed record out. Handshake: a client.HandshakeRequest in, a
// HandshakeResponse out. Any other kind is the call's BadRequest, which f
// counts through Refused.
func ServeCall(ctx context.Context, f Front, kind byte, body []byte) ([]byte, error) {
	switch kind {
	case mux.KindSecure:
		session, record, ok := client.ParseSecureBody(body)
		if !ok {
			f.Refused()
			return nil, BadRequest("bad secure body")
		}
		return f.SecureCall(ctx, session, record)
	case mux.KindHandshake:
		var req client.HandshakeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			f.Refused()
			return nil, BadRequest("bad handshake body")
		}
		resp, err := f.Handshake(ctx, req.Offer, req.Nonce)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	default:
		f.Refused()
		return nil, BadRequest(fmt.Sprintf("unknown stream kind 0x%x", kind))
	}
}

// InProcess is the client.Caller of a Front in this process: ServeCall with
// no edge around it, each failure mapped as the HTTP edge maps it — a
// BadRequest is the caller's error, any other the front's refusal.
type InProcess struct{ Front }

// Call serves one call of the given kind.
func (c InProcess) Call(ctx context.Context, kind byte, body, _ []byte) ([]byte, error) {
	reply, err := ServeCall(ctx, c.Front, kind, body)
	var bad BadRequest
	if err != nil && !errors.As(err, &bad) {
		err = fmt.Errorf("%w: %w", client.ErrRefused, err)
	}
	return reply, err
}

// HandleFront registers f's client routes on routes: POST /handshake and
// POST /secure, the two calls a broker makes.
func HandleFront(routes *http.ServeMux, f Front) {
	routes.HandleFunc("/handshake", frontHandler(f, mux.KindHandshake))
	routes.HandleFunc("/secure", frontHandler(f, mux.KindSecure))
}

// frontHandler is the HTTP form of one call kind.
func frontHandler(f Front, kind byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		// A body that cannot be read (over the cap, cut short) goes on as
		// no body, which ServeCall refuses as it does a bad one.
		body, _ := serve.ReadBody(nil, r.Body, r.ContentLength, client.MaxBodyBytes)
		reply, err := ServeCall(r.Context(), f, kind, body)
		if err != nil {
			status := http.StatusBadGateway
			var bad BadRequest
			if errors.As(err, &bad) {
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
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
