package proxy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"xsearch/internal/answer"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/metrics"
	"xsearch/internal/obs"
	"xsearch/internal/seal"
	"xsearch/internal/securechannel"
)

// trustedState is the in-enclave state of the X-Search node: the past-query
// history, the obfuscator, and the table of established secure channels.
// Everything here lives in (simulated) EPC; the untrusted runtime only sees
// sealed records and obfuscated queries.
type trustedState struct {
	obfuscator *core.Obfuscator
	perList    int
	echoMode   bool
	// registry owns the engine upstreams: per-upstream connection pools,
	// breaker health state, and the weighted fan-out order (nil only in
	// echo mode). It lives inside the trusted boundary; each upstream's
	// pinned roots are part of the measured identity.
	registry *upstreamRegistry
	// sealer encrypts the sealed state (history and index) for
	// persistence and drains; set after the enclave is built (the sealing
	// key derives from the enclave identity). mergeMu serializes merges,
	// and merged holds the id of every blob this enclave accepted, one
	// entry per accepted merge, so none counts twice.
	sealer  *seal.Sealer
	mergeMu sync.Mutex
	merged  map[[16]byte]bool
	// cache short-circuits repeat queries (nil when caching is disabled);
	// it lives inside the trusted boundary and charges its footprint to
	// the EPC. flights coalesces concurrent identical original queries
	// into one engine round trip (nil when coalescing is disabled).
	cache     *core.ResultCache
	cacheHits metrics.RatioCounter
	flights   *core.FlightGroup
	coalesce  metrics.RatioCounter
	// index is the answer tier (nil when disabled): a mutable TF-IDF
	// index over recently fetched results, probed after a cache miss and
	// before the upstream pipeline. It charges arena-quantized bytes to
	// the EPC under its own lock; inserts happen only inside the
	// already-measured winner/resume ecalls.
	index     *answer.Index
	indexHits metrics.RatioCounter
	// stages is the per-stage latency recorder (nil when observability is
	// off — every Record on a nil recorder is a no-op). It accumulates
	// trusted-side: individual stage timings never leave the enclave, only
	// the aggregate histograms do, so the host learns nothing it couldn't
	// already time at the ecall seam. events is the shared structured
	// event ring (nil when disabled); only closed-set, content-free events
	// (breaker transitions) are ever appended from here.
	stages *obs.Stages
	events *obs.Log
	shard  int

	// Async pipeline state (nil when Config.AsyncOcalls is off): the
	// parked-request table.
	pending *pendingTable
	// fetchTimeout is the absolute budget for one whole engine fetch —
	// connect, TLS handshake, request, response — on both the blocking
	// and async paths (Config.FetchTimeout; zero = unbounded).
	fetchTimeout time.Duration
	// flightStop, closed at shutdown (after drain) or crash, unblocks
	// every parked flight coroutine and its driver. Nil when async
	// is off (a nil channel never fires in a select, which is correct:
	// sync-path code never parks on it).
	flightStop     chan struct{}
	flightStopOnce sync.Once

	mu       sync.Mutex
	sessions map[string]*sessionState
	maxSess  int
	// order tracks session insertion for FIFO eviction.
	order []string
}

// stopFlights releases every parked flight (coroutines and drivers) for
// teardown. Idempotent; a no-op on a blocking proxy.
func (ts *trustedState) stopFlights() {
	if ts.flightStop == nil {
		return
	}
	ts.flightStopOnce.Do(func() { close(ts.flightStop) })
}

// stateAAD versions the sealed-state format.
var stateAAD = []byte("xsearch-state-v1")

// sealedState is the plaintext of the one sealed-state blob: every piece
// of privacy state that outlives an enclave, as one section each, under
// the id that makes the blob single-use.
type sealedState struct {
	ID      [16]byte        `json:"id"`
	History []string        `json:"history"`
	Index   answer.Snapshot `json:"index,omitempty"`
}

// handleSnapshot is the "snapshot" ecall: seal the history window and the
// answer index, under a fresh id, for the untrusted runtime to persist or
// hand to a successor (it can store the blob but not read it).
func (ts *trustedState) handleSnapshot(env enclave.Env, _ []byte) ([]byte, error) {
	if ts.sealer == nil {
		return nil, fmt.Errorf("proxy: sealing not configured")
	}
	st := sealedState{History: ts.obfuscator.History().Snapshot()}
	if err := env.Read(st.ID[:]); err != nil {
		return nil, fmt.Errorf("proxy: state id: %w", err)
	}
	if ts.index != nil {
		st.Index = ts.index.Snapshot()
	}
	plaintext, err := json.Marshal(&st)
	if err != nil {
		return nil, err
	}
	return ts.sealer.Seal(plaintext, stateAAD)
}

// handleMerge is the "merge" ecall: unseal a blob a same-vendor enclave
// snapshotted and add it to the local state — at start-up into the empty
// window, on a fleet drain into the successor's own. It is all or nothing:
// every step that can refuse (unseal, decode, the replay check, the history
// charge) runs before anything is applied, and nothing after the charge can
// fail, so a refused merge leaves the state and heap == history + cache +
// index as they were. The incoming window is trimmed to the newest
// Capacity() queries first (the rest would only be evicted), and the
// charge is their cost, an upper bound on the real delta (evictions only
// subtract); the difference is refunded. A blob merges at most once into
// this enclave: merged remembers every accepted id.
func (ts *trustedState) handleMerge(env enclave.Env, arg []byte) ([]byte, error) {
	if ts.sealer == nil {
		return nil, fmt.Errorf("proxy: sealing not configured")
	}
	plaintext, err := ts.sealer.Unseal(arg, stateAAD)
	if err != nil {
		return nil, fmt.Errorf("proxy: unseal state: %w", err)
	}
	var st sealedState
	if err := json.Unmarshal(plaintext, &st); err != nil {
		return nil, fmt.Errorf("proxy: state payload: %w", err)
	}
	ts.mergeMu.Lock()
	defer ts.mergeMu.Unlock()
	if ts.merged[st.ID] {
		// The host may move a blob, not choose how often it counts.
		return nil, errors.New("proxy: sealed state already merged")
	}
	h := ts.obfuscator.History()
	queries := st.History
	if over := len(queries) - h.Capacity(); over > 0 {
		queries = queries[over:]
	}
	bound := core.HistoryCost(queries)
	if bound > 0 {
		if err := env.Alloc(bound); err != nil {
			return nil, fmt.Errorf("proxy: history alloc: %w", err)
		}
	}
	rep := MergeReport{Queries: len(queries)}
	for _, q := range queries {
		rep.HistoryBytes += h.Add(q)
	}
	env.Free(bound - rep.HistoryBytes)
	if ts.index != nil {
		rep.IndexDocs, rep.IndexBytes = ts.index.Merge(st.Index, time.Now(), env.Alloc, env.Free)
	}
	ts.merged[st.ID] = true
	return json.Marshal(rep)
}

type sessionState struct {
	channel *securechannel.Channel
}

// handleHandshake establishes a secure channel: generate an ephemeral
// server key inside the enclave, bind it into report data, and remember
// the session.
func (ts *trustedState) handleHandshake(env enclave.Env, rawOffer json.RawMessage) ([]byte, error) {
	clientOffer, err := securechannel.UnmarshalOffer(rawOffer)
	if err != nil {
		return nil, err
	}
	hs, err := securechannel.NewHandshake(securechannel.RoleServer)
	if err != nil {
		return nil, err
	}
	channel, err := hs.Complete(clientOffer)
	if err != nil {
		return nil, fmt.Errorf("proxy: handshake: %w", err)
	}
	var sid [16]byte
	if err := env.Read(sid[:]); err != nil {
		return nil, fmt.Errorf("proxy: session id: %w", err)
	}
	session := hex.EncodeToString(sid[:])

	ts.mu.Lock()
	if len(ts.sessions) >= ts.maxSess && len(ts.order) > 0 {
		oldest := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.sessions, oldest)
	}
	ts.sessions[session] = &sessionState{channel: channel}
	ts.order = append(ts.order, session)
	ts.mu.Unlock()

	offerJSON, err := hs.Offer().Marshal()
	if err != nil {
		return nil, err
	}
	// The runtime needs the bound key hash to request a quote; the value
	// itself is public (it is a hash of a public key).
	bind := bindKeyHash(hs.PublicKeyBytes())
	reply := envelopeReply{Offer: offerJSON, Session: session, ReportData: bind[:]}
	return reply.encode(), nil
}

// maxEngineResponse bounds how many body bytes the enclave accepts from
// one engine response, and maxEngineHeaderBytes bounds everything
// line-framed (status line, headers, chunk sizes, trailers). The response
// arrives through the untrusted host's ocalls, so declared lengths and
// line lengths are hostile input: nothing may be allocated on their
// say-so beyond these caps. Real result lists are a few hundred KB at
// most; real header sections are under a KB.
const (
	maxEngineResponse    = 8 << 20
	maxEngineHeaderBytes = 64 << 10
)

// errBadFraming is a body length RFC 9112 §6.3 leaves ambiguous (Content-Length
// beside Transfer-Encoding, two that differ, one not digits): a guess would let
// the host frame the next response on a pooled connection, so none is made.
var errBadFraming = errors.New("proxy: ambiguous engine response framing")

// errBadStatus is a status code that is not three digits (RFC 9112 §4).
var errBadStatus = errors.New("proxy: engine status code is not three digits")

// readLine reads one \n-terminated line, drawing every byte against the
// shared per-response budget so a hostile host cannot stream an endless
// (or endless-line) header section into enclave memory. The line aliases
// reader's buffer until its next read; only a line longer than the buffer
// is accumulated.
func readLine(reader *bufio.Reader, budget *int) ([]byte, error) {
	var line []byte
	for {
		frag, err := reader.ReadSlice('\n')
		*budget -= len(frag)
		if *budget < 0 {
			return nil, fmt.Errorf("proxy: engine response headers exceed %d-byte cap", maxEngineHeaderBytes)
		}
		switch {
		case err == nil && line == nil:
			return frag, nil
		case err == nil:
			return append(line, frag...), nil
		case err != bufio.ErrBufferFull:
			return nil, err
		}
		line = append(line, frag...) // long line: keep accumulating against the budget
	}
}

// readHTTPResponse reads status line, headers and body from the (possibly
// TLS-wrapped) connection, handling the three HTTP body framings: chunked,
// Content-Length, and read-to-EOF. It reads exactly one response — it
// never over-reads past a delimited body — caps the body at
// maxEngineResponse, and reports whether the connection may carry another
// request (delimited framing and no "Connection: close"). Lines are parsed
// where bufio holds them; the body is decoded into the one string returned.
func readHTTPResponse(reader *bufio.Reader) (body string, status int, keepAlive bool, err error) {
	lineBudget := maxEngineHeaderBytes
	line, err := readLine(reader, &lineBudget)
	if err != nil {
		return "", 0, false, fmt.Errorf("proxy: read status line: %w", err)
	}
	proto, code, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return "", 0, false, fmt.Errorf("proxy: malformed status line %q", line)
	}
	code, _, _ = bytes.Cut(code, []byte(" "))
	code = bytes.TrimSpace(code)
	status, err = strconv.Atoi(string(code))
	if err != nil {
		return "", 0, false, fmt.Errorf("proxy: status code: %w", err)
	}
	// Atoi also takes a sign and any length; RFC 9112 §4 allows three digits.
	if len(code) != 3 || code[0] < '0' {
		return "", 0, false, errBadStatus
	}
	http11, http10 := string(proto) == "HTTP/1.1", string(proto) == "HTTP/1.0"
	var chunked, sawTE, connClose, connKeep bool
	contentLength := -1
	for {
		line, err := readLine(reader, &lineBudget)
		if err != nil {
			return "", 0, false, fmt.Errorf("proxy: read headers: %w", err)
		}
		if string(line) == "\r\n" || string(line) == "\n" {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(bytes.TrimSuffix(value, []byte("\r\n")))
		switch {
		case lowerIs(name, "transfer-encoding"):
			sawTE, chunked = true, false
			for i := 0; i < len(value) && !chunked; i++ {
				chunked = lowerPrefix(value[i:], "chunked") >= 0
			}
		case lowerIs(name, "content-length"):
			// Atoi also takes a sign; RFC 9110 §8.6 allows digits only.
			n, err := strconv.Atoi(string(value))
			if err != nil || value[0] < '0' || contentLength >= 0 && n != contentLength {
				return "", 0, false, errBadFraming
			}
			contentLength = n
		case lowerIs(name, "connection"):
			connClose = connClose || lowerIs(value, "close")
			connKeep = connKeep || lowerIs(value, "keep-alive")
		}
	}
	// Persistence per RFC 9112 §9.3: 1.1 defaults to keep-alive, 1.0 to
	// close; only a delimited body leaves the stream reusable.
	keepAlive = (http11 && !connClose) || (http10 && connKeep)
	var sb strings.Builder
	switch {
	case sawTE && contentLength >= 0:
		err = errBadFraming
	case chunked:
		err = readChunkedBody(reader, &sb, &lineBudget)
	case contentLength > maxEngineResponse:
		err = fmt.Errorf("proxy: engine response %d bytes exceeds cap", contentLength)
	case contentLength >= 0:
		sb.Grow(contentLength)
		if err = copyBody(&sb, reader, contentLength); err != nil {
			err = fmt.Errorf("proxy: read body: %w", err)
		}
	default:
		// Undelimited body: read to EOF (capped); the connection is spent.
		keepAlive = false
		if err = copyBody(&sb, reader, maxEngineResponse+1); err == nil {
			err = fmt.Errorf("proxy: engine response exceeds %d-byte cap", maxEngineResponse)
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		return "", 0, false, err
	}
	return sb.String(), status, keepAlive, nil
}

// readChunkedBody decodes HTTP/1.1 chunked transfer encoding into sb and
// consumes the trailer section, leaving a keep-alive connection at the next
// response. Size and trailer lines draw on the shared header budget; each
// chunk is checked against maxEngineResponse before sb grows by it.
func readChunkedBody(reader *bufio.Reader, sb *strings.Builder, lineBudget *int) error {
	for {
		line, err := readLine(reader, lineBudget)
		if err != nil {
			return fmt.Errorf("proxy: chunk size: %w", err)
		}
		line, _, _ = bytes.Cut(bytes.TrimSpace(line), []byte(";")) // drop chunk extensions
		size, err := strconv.ParseInt(string(line), 16, 32)
		if err != nil {
			return fmt.Errorf("proxy: chunk size %q: %w", line, err)
		}
		if size < 0 || int64(sb.Len())+size > maxEngineResponse {
			return fmt.Errorf("proxy: chunked engine response exceeds %d-byte cap", maxEngineResponse)
		}
		if size == 0 {
			// Trailer section: lines until the blank terminator.
			for {
				line, err := readLine(reader, lineBudget)
				if err != nil {
					return fmt.Errorf("proxy: chunk trailers: %w", err)
				}
				if string(line) == "\r\n" || string(line) == "\n" {
					return nil
				}
			}
		}
		sb.Grow(int(size))
		if err := copyBody(sb, reader, int(size)); err != nil {
			return fmt.Errorf("proxy: chunk body: %w", err)
		}
		// Consume trailing CRLF.
		if _, err := reader.Discard(2); err != nil {
			return fmt.Errorf("proxy: chunk crlf: %w", err)
		}
	}
}

// copyBody moves n bytes from reader into sb straight out of reader's
// buffer (Peek, then Discard), or fails with what cut the stream short.
func copyBody(sb *strings.Builder, reader *bufio.Reader, n int) error {
	for n > 0 {
		p, err := reader.Peek(min(n, reader.Size()))
		sb.Write(p)
		_, _ = reader.Discard(len(p)) // buffered bytes: cannot fail
		n -= len(p)
		if err != nil {
			return err
		}
	}
	return nil
}

// lowerPrefix is where in b a prefix ends that strings.ToLower lowers to
// want (lower-case ASCII), or -1, without building the lowered copy: the
// Kelvin sign still lowers to k and U+0130 to i.
func lowerPrefix(b []byte, want string) (end int) {
	for j := 0; j < len(want); j++ {
		r, size := utf8.DecodeRune(b[end:])
		if size == 0 || unicode.ToLower(r) != rune(want[j]) {
			return -1
		}
		end += size
	}
	return end
}

// lowerIs is strings.ToLower(string(b)) == want.
func lowerIs(b []byte, want string) bool { return lowerPrefix(b, want) == len(b) }

// --- ocall wrappers (the paper's table in §5.3.3) ---

// ocallConnect opens a socket to the upstream's host:port; the handle it
// returns is the host's descriptor, opaque to the enclave.
func ocallConnect(env enclave.Env, addr string) (uint64, error) {
	res, err := env.OCall("sock_connect", []byte(addr))
	if err != nil {
		return 0, fmt.Errorf("proxy: sock_connect: %w", err)
	}
	if len(res) != 8 {
		return 0, fmt.Errorf("proxy: sock_connect returned %d bytes", len(res))
	}
	return binary.LittleEndian.Uint64(res), nil
}

func ocallSend(env enclave.Env, fd uint64, data []byte) error {
	arg := make([]byte, 8+len(data))
	binary.LittleEndian.PutUint64(arg, fd)
	copy(arg[8:], data)
	if _, err := env.OCall("send", arg); err != nil {
		return fmt.Errorf("proxy: send: %w", err)
	}
	return nil
}

func ocallRecv(env enclave.Env, fd, timeoutMS uint64) (data []byte, eof bool, err error) {
	// Bytes 16:24 carry the remaining read budget in milliseconds (0 = no
	// deadline), so the untrusted handler arms a real socket deadline.
	arg := make([]byte, 24)
	binary.LittleEndian.PutUint64(arg, fd)
	binary.LittleEndian.PutUint64(arg[8:], tlsStepReadMax)
	binary.LittleEndian.PutUint64(arg[16:], timeoutMS)
	res, err := env.OCall("recv", arg)
	if err != nil {
		return nil, false, fmt.Errorf("proxy: recv: %w", err)
	}
	if len(res) < 1 {
		return nil, false, fmt.Errorf("proxy: recv returned empty result")
	}
	return res[1:], res[0] == 1, nil
}

func ocallClose(env enclave.Env, fd uint64) {
	arg := make([]byte, 8)
	binary.LittleEndian.PutUint64(arg, fd)
	// Best effort; the runtime reaps leaked conns on shutdown anyway.
	_, _ = env.OCall("close", arg)
}

// ocallCheck asks the untrusted runtime whether the socket is still usable
// for a fresh request: open, with no unread bytes (leftover data means the
// previous HTTP exchange desynced).
func ocallCheck(env enclave.Env, fd uint64) bool {
	arg := make([]byte, 8)
	binary.LittleEndian.PutUint64(arg, fd)
	res, err := env.OCall("sock_check", arg)
	return err == nil && len(res) == 1 && res[0] == 1
}

// ocallStepper is the blocking stage's stepper: each step of the exchange
// (tlsasync.go) is carried out in place, inside the "request" ecall, as
// the paper's socket ocalls — close*, sock_connect, send, recv — with
// sock_check as the pre-use probe only a synchronous caller can afford.
// Conn handles are the host's descriptors. Like the async step handler it
// closes a conn whose send or recv failed, or that read EOF, itself: the
// adapter takes such a conn for gone.
type ocallStepper struct{ env enclave.Env }

func (o ocallStepper) alive(fd uint64) bool { return ocallCheck(o.env, fd) }

func (o ocallStepper) close(fds []uint64) {
	for _, fd := range fds {
		ocallClose(o.env, fd)
	}
}

func (o ocallStepper) do(ask *tlsStepArg) (tlsStepIn, bool) {
	o.close(ask.Close)
	in := tlsStepIn{connID: ask.ConnID}
	var err error
	if ask.Dial {
		if in.connID, err = ocallConnect(o.env, ask.Host); err != nil {
			return tlsStepIn{errstr: err.Error()}, true
		}
	}
	if len(ask.Send) > 0 {
		err = ocallSend(o.env, in.connID, ask.Send)
	}
	if err == nil && ask.Read {
		in.data, in.eof, err = ocallRecv(o.env, in.connID, ask.TimeoutMS)
	}
	if err != nil || in.eof {
		ocallClose(o.env, in.connID)
	}
	if err != nil {
		return tlsStepIn{errstr: err.Error()}, true
	}
	return in, true
}

// Address stubs for the adapter: the step seam exposes no peer addresses.
type ocallAddr struct{}

func (ocallAddr) Network() string { return "ocall" }
func (ocallAddr) String() string  { return "enclave-ocall" }

// --- small helpers that must live inside the enclave ---

func splitHostPort(hostport string) (string, int, error) {
	idx := strings.LastIndex(hostport, ":")
	if idx < 0 {
		return "", 0, fmt.Errorf("proxy: engine host %q missing port", hostport)
	}
	port, err := strconv.Atoi(hostport[idx+1:])
	if err != nil {
		return "", 0, fmt.Errorf("proxy: engine port: %w", err)
	}
	return hostport[:idx], port, nil
}

// queryEscape percent-encodes a query for a URL query component.
func queryEscape(s string) string {
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

// bindKeyHash mirrors attestation.BindKey without importing it into the
// trusted code (the enclave must compute the binding itself).
func bindKeyHash(pub []byte) [64]byte {
	var out [64]byte
	sum := sha256Sum(pub)
	copy(out[:], sum[:])
	return out
}
