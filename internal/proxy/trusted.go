package proxy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// sealer encrypts the history for persistence across restarts; set
	// after the enclave is built (the sealing key derives from the
	// enclave identity).
	sealer *seal.Sealer
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
	// (breaker transitions, hedge fires) are ever appended from here.
	stages *obs.Stages
	events *obs.Log
	shard  int

	// Async pipeline state (nil/zero when Config.AsyncOcalls is off):
	// the parked-request table, the hedge budget per request, and where a
	// flight reports a successful exchange's wall time — the untrusted
	// runtime's per-upstream histogram, which times the hedges; host and
	// timing are what the host observes at the step seam anyway.
	pending     *pendingTable
	hedgeMax    int
	recordFetch func(host string, d time.Duration)
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
	// Hedge gauges: attempts issued, hedges that won their race, and
	// losers the runtime cancelled.
	hedgeAttempts  atomic.Uint64
	hedgeWins      atomic.Uint64
	hedgeCancelled atomic.Uint64

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

// historyAAD versions the sealed-history format.
var historyAAD = []byte("xsearch-history-v1")

// indexAAD versions the sealed answer-index format. Distinct from
// historyAAD so the host can never replay a blob across the two seams.
var indexAAD = []byte("xsearch-index-v1")

// unsealHistory opens a history blob a same-vendor enclave sealed.
func (ts *trustedState) unsealHistory(blob []byte) ([]string, error) {
	if ts.sealer == nil {
		return nil, fmt.Errorf("proxy: sealing not configured")
	}
	plaintext, err := ts.sealer.Unseal(blob, historyAAD)
	if err != nil {
		return nil, fmt.Errorf("proxy: unseal history: %w", err)
	}
	var queries []string
	if err := json.Unmarshal(plaintext, &queries); err != nil {
		return nil, fmt.Errorf("proxy: history payload: %w", err)
	}
	return queries, nil
}

// handleRestore is the "restore" ecall: unseal a persisted history blob
// and load it into the window, charging the EPC for the restored bytes.
// The charge comes first — exactly what the window will keep, its most
// recent Capacity() queries — so a restore the EPC refuses leaves the
// history as it was and heap == history + cache + index still true.
func (ts *trustedState) handleRestore(env enclave.Env, arg []byte) ([]byte, error) {
	queries, err := ts.unsealHistory(arg)
	if err != nil {
		return nil, err
	}
	h := ts.obfuscator.History()
	if over := len(queries) - h.Capacity(); over > 0 {
		queries = queries[over:]
	}
	if err := env.Alloc(core.HistoryCost(queries)); err != nil {
		return nil, fmt.Errorf("proxy: history alloc: %w", err)
	}
	replaced := h.Bytes()
	h.Restore(queries)
	env.Free(replaced)
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(h.Len()))
	return out, nil
}

// handleSnapshot is the "snapshot" ecall: seal the current history for
// persistence by the untrusted runtime (which can store but not read it).
func (ts *trustedState) handleSnapshot(_ enclave.Env, _ []byte) ([]byte, error) {
	if ts.sealer == nil {
		return nil, fmt.Errorf("proxy: sealing not configured")
	}
	plaintext, err := json.Marshal(ts.obfuscator.History().Snapshot())
	if err != nil {
		return nil, err
	}
	return ts.sealer.Seal(plaintext, historyAAD)
}

// handleMerge is the "merge" ecall, the receiving half of a fleet shard
// handoff: unseal a history blob another same-vendor enclave snapshotted
// and append its queries to the local window. Unlike restore, the local
// history is kept — the successor shard serves both its own sessions and
// the drained shard's future ones, so both windows' queries belong in its
// fake pool. Growth is charged to the EPC via the same Alloc/Free contract
// as live inserts, keeping heap == history + cache.
func (ts *trustedState) handleMerge(env enclave.Env, arg []byte) ([]byte, error) {
	queries, err := ts.unsealHistory(arg)
	if err != nil {
		return nil, err
	}
	h := ts.obfuscator.History()
	// Charge an upper bound BEFORE touching the window: the real delta is
	// at most the incoming bytes (evictions only subtract), so a merge
	// that cannot fit fails here with the history untouched — the drain
	// aborts cleanly and can be retried without double-merging — and the
	// heap == history + cache invariant never breaks mid-append.
	bound := core.HistoryCost(queries)
	if bound > 0 {
		if err := env.Alloc(bound); err != nil {
			return nil, fmt.Errorf("proxy: history alloc: %w", err)
		}
	}
	var delta int64
	for _, q := range queries {
		delta += h.Add(q)
	}
	if refund := bound - delta; refund > 0 {
		env.Free(refund)
	}
	return json.Marshal(mergeReply{Added: len(queries), Bytes: delta})
}

// handleSnapshotIndex is the "snapshot-index" ecall: seal the answer
// index for the fleet's drain handoff. With the index disabled it
// returns an empty blob the receiving merge treats as a no-op, keeping
// the drain path uniform across configurations.
func (ts *trustedState) handleSnapshotIndex(_ enclave.Env, _ []byte) ([]byte, error) {
	if ts.index == nil {
		return nil, nil
	}
	if ts.sealer == nil {
		return nil, fmt.Errorf("proxy: sealing not configured")
	}
	plaintext, err := ts.index.Snapshot()
	if err != nil {
		return nil, err
	}
	return ts.sealer.Seal(plaintext, indexAAD)
}

// handleMergeIndex is the "merge-index" ecall, the receiving half of the
// answer tier's sealed handoff: unseal an index blob another same-vendor
// enclave snapshotted and merge its still-fresh documents into the local
// index. Each document is charged to the EPC under the index lock
// exactly like a live insert, so heap == history + cache + index holds
// at every step and a charge failure skips the document instead of
// corrupting the meter. An empty blob — or a node with the index
// disabled — is a no-op.
func (ts *trustedState) handleMergeIndex(env enclave.Env, arg []byte) ([]byte, error) {
	if len(arg) == 0 || ts.index == nil {
		return json.Marshal(mergeReply{})
	}
	if ts.sealer == nil {
		return nil, fmt.Errorf("proxy: sealing not configured")
	}
	plaintext, err := ts.sealer.Unseal(arg, indexAAD)
	if err != nil {
		return nil, fmt.Errorf("proxy: unseal index: %w", err)
	}
	added, bytes, err := ts.index.Merge(plaintext, time.Now(), env.Alloc, env.Free)
	if err != nil {
		return nil, err
	}
	return json.Marshal(mergeReply{Added: added, Bytes: bytes})
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

// readLine reads one \n-terminated line, drawing every byte against the
// shared per-response budget so a hostile host cannot stream an endless
// (or endless-line) header section into enclave memory.
func readLine(reader *bufio.Reader, budget *int) (string, error) {
	var line []byte
	for {
		frag, err := reader.ReadSlice('\n')
		*budget -= len(frag)
		if *budget < 0 {
			return "", fmt.Errorf("proxy: engine response headers exceed %d-byte cap", maxEngineHeaderBytes)
		}
		line = append(line, frag...)
		switch err {
		case nil:
			return string(line), nil
		case bufio.ErrBufferFull:
			continue // long line: keep accumulating against the budget
		default:
			return "", err
		}
	}
}

// readHTTPResponse reads status line, headers and body from the (possibly
// TLS-wrapped) connection, handling the three HTTP body framings: chunked,
// Content-Length, and read-to-EOF. It reads exactly one response — it
// never over-reads past a delimited body — caps the body at
// maxEngineResponse, and reports whether the connection may carry another
// request (delimited framing and no "Connection: close").
func readHTTPResponse(reader *bufio.Reader) (body []byte, status int, keepAlive bool, err error) {
	lineBudget := maxEngineHeaderBytes
	statusLine, err := readLine(reader, &lineBudget)
	if err != nil {
		return nil, 0, false, fmt.Errorf("proxy: read status line: %w", err)
	}
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 {
		return nil, 0, false, fmt.Errorf("proxy: malformed status line %q", statusLine)
	}
	proto := parts[0]
	status, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, 0, false, fmt.Errorf("proxy: status code: %w", err)
	}
	chunked := false
	contentLength := -1
	connClose, connKeep := false, false
	for {
		line, err := readLine(reader, &lineBudget)
		if err != nil {
			return nil, 0, false, fmt.Errorf("proxy: read headers: %w", err)
		}
		if line == "\r\n" || line == "\n" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		value = strings.TrimSpace(strings.TrimSuffix(value, "\r\n"))
		switch strings.ToLower(name) {
		case "transfer-encoding":
			chunked = strings.Contains(strings.ToLower(value), "chunked")
		case "content-length":
			if n, err := strconv.Atoi(value); err == nil {
				contentLength = n
			}
		case "connection":
			switch strings.ToLower(value) {
			case "close":
				connClose = true
			case "keep-alive":
				connKeep = true
			}
		}
	}
	// Persistence per RFC 9112 §9.3: 1.1 defaults to keep-alive, 1.0 to
	// close; only a delimited body leaves the stream reusable.
	keepAlive = (proto == "HTTP/1.1" && !connClose) || (proto == "HTTP/1.0" && connKeep)
	switch {
	case chunked:
		body, err = readChunkedBody(reader, &lineBudget)
		if err != nil {
			return nil, 0, false, err
		}
		return body, status, keepAlive, nil
	case contentLength >= 0:
		if contentLength > maxEngineResponse {
			return nil, 0, false, fmt.Errorf("proxy: engine response %d bytes exceeds cap", contentLength)
		}
		body = make([]byte, contentLength)
		if _, err := io.ReadFull(reader, body); err != nil {
			return nil, 0, false, fmt.Errorf("proxy: read body: %w", err)
		}
		return body, status, keepAlive, nil
	default:
		// Undelimited body: read to EOF (capped); the connection is spent.
		rest := new(bytes.Buffer)
		if _, err := rest.ReadFrom(io.LimitReader(reader, maxEngineResponse+1)); err != nil {
			return nil, 0, false, err
		}
		if rest.Len() > maxEngineResponse {
			return nil, 0, false, fmt.Errorf("proxy: engine response exceeds %d-byte cap", maxEngineResponse)
		}
		return rest.Bytes(), status, false, nil
	}
}

// readChunkedBody decodes HTTP/1.1 chunked transfer encoding, consuming
// the terminating chunk's trailer section so a keep-alive connection is
// left positioned at the next response. Chunk-size and trailer lines draw
// on the shared header budget; chunk payloads on maxEngineResponse.
func readChunkedBody(reader *bufio.Reader, lineBudget *int) ([]byte, error) {
	var out bytes.Buffer
	for {
		sizeLine, err := readLine(reader, lineBudget)
		if err != nil {
			return nil, fmt.Errorf("proxy: chunk size: %w", err)
		}
		sizeLine = strings.TrimSpace(sizeLine)
		if idx := strings.IndexByte(sizeLine, ';'); idx >= 0 {
			sizeLine = sizeLine[:idx] // drop chunk extensions
		}
		size, err := strconv.ParseInt(sizeLine, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("proxy: chunk size %q: %w", sizeLine, err)
		}
		if size < 0 || int64(out.Len())+size > maxEngineResponse {
			return nil, fmt.Errorf("proxy: chunked engine response exceeds %d-byte cap", maxEngineResponse)
		}
		if size == 0 {
			// Trailer section: lines until the blank terminator.
			for {
				line, err := readLine(reader, lineBudget)
				if err != nil {
					return nil, fmt.Errorf("proxy: chunk trailers: %w", err)
				}
				if line == "\r\n" || line == "\n" {
					return out.Bytes(), nil
				}
			}
		}
		chunk := make([]byte, size)
		if _, err := io.ReadFull(reader, chunk); err != nil {
			return nil, fmt.Errorf("proxy: chunk body: %w", err)
		}
		out.Write(chunk)
		// Consume trailing CRLF.
		if _, err := reader.Discard(2); err != nil {
			return nil, fmt.Errorf("proxy: chunk crlf: %w", err)
		}
	}
}

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

func ocallRecv(env enclave.Env, fd uint64, max int, timeoutMS uint64) (data []byte, eof bool, err error) {
	// Bytes 16:24 carry the remaining read budget in milliseconds (0 = no
	// deadline), so the untrusted handler arms a real socket deadline.
	arg := make([]byte, 24)
	binary.LittleEndian.PutUint64(arg, fd)
	binary.LittleEndian.PutUint64(arg[8:], uint64(max))
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

// ocallRecvMax is what one recv asks for. The host allocates that much per
// call whatever arrives, and a result list rarely needs more than two.
const ocallRecvMax = 16 << 10

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
		in.data, in.eof, err = ocallRecv(o.env, in.connID, ocallRecvMax, ask.TimeoutMS)
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
