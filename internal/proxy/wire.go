package proxy

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"xsearch/internal/core"
	"xsearch/internal/securechannel"
)

// Every message that carries a request, a reply or a pending-table control
// across the enclave boundary — envelope, envelopeReply, batchItemReply,
// resumeReply, the id argument of "abandon" and its token list — and the
// engine stage's two step messages are length-prefixed binary frames
// (doc.go has the seam table). Each lists its fields once, in a walk method
// that the wire walker at the end of this file runs in either direction.

// Request types crossing the enclave boundary. The envelope is what the
// untrusted runtime encodes into the single "request" ecall, mirroring the
// paper's narrow enclave interface.
const (
	typePlain     = 1
	typeHandshake = 2
	typeSecure    = 3
)

// envelope is the argument of the "request" ecall.
type envelope struct {
	Type byte
	// ID is the untrusted runtime's name for this request, minted before the
	// crossing (pipelineRuntime.register): the async engine stage parks the
	// request under it, and every later outcome and control names it. The
	// blocking stage ignores it.
	ID uint64
	// Plain query (Type == typePlain).
	Query string
	// Handshake offer from the client (Type == typeHandshake).
	Offer json.RawMessage
	// Secure record (Type == typeSecure).
	Session string
	Record  []byte
}

func (e *envelope) walk(w *wire) {
	w.u8(&e.Type, typePlain, typeSecure)
	w.u64(&e.ID)
	w.str(&e.Query)
	w.bytes((*[]byte)(&e.Offer))
	w.str(&e.Session)
	w.bytes(&e.Record)
}

func (e *envelope) encode() []byte {
	w := wire{b: make([]byte, 0, 1+8+4*4+len(e.Query)+len(e.Offer)+len(e.Session)+len(e.Record))}
	e.walk(&w)
	return w.b
}

func (e *envelope) decode(b []byte) error {
	w := wire{b: b, dec: true}
	e.walk(&w)
	return w.end()
}

// envelopeReply is the result of the "request" ecall — and, nested in
// resumeReply and batchItemReply, the one encoding of a reply on every
// path.
type envelopeReply struct {
	// Results of a plain query.
	Results []core.Result
	// Handshake reply.
	Offer   json.RawMessage
	Session string
	// ReportData echoes the value the enclave bound into its report so
	// the untrusted runtime can fetch a quote for it.
	ReportData []byte
	// Sealed response record for a secure request: the walk's last field,
	// so sealedReply can seal it inside the frame.
	Record []byte
	// Async pipeline: when Pending is nonzero the request parked inside
	// the enclave under that id (the envelope's) awaiting an async engine
	// fetch; the final reply arrives in a "resume" reply.
	Pending uint64
}

func (e *envelopeReply) walk(w *wire) {
	w.u64(&e.Pending)
	w.bytes((*[]byte)(&e.Offer))
	w.str(&e.Session)
	w.bytes(&e.ReportData)
	// A result is at least its three length prefixes.
	if n := w.count(len(e.Results), 3*4); w.dec && n > 0 {
		e.Results = make([]core.Result, n)
	}
	for i := range e.Results {
		w.str(&e.Results[i].URL)
		w.str(&e.Results[i].Title)
		w.str(&e.Results[i].Snippet)
	}
	w.bytes(&e.Record)
}

func (e *envelopeReply) size() int {
	n := 8 + 5*4 + len(e.Offer) + len(e.Session) + len(e.ReportData) + len(e.Record)
	for _, r := range e.Results {
		n += 3*4 + len(r.URL) + len(r.Title) + len(r.Snippet)
	}
	return n
}

func (e *envelopeReply) encode() []byte {
	w := wire{b: make([]byte, 0, e.size())}
	e.walk(&w)
	return w.b
}

// sealedReply is a secure request's final envelopeReply, written once: the
// frame of an empty reply ends in Record's length prefix, the reply
// plaintext is appended after that and a sequence slot, sealed where it
// lies, and the prefix back-patched — one buffer from the result list to
// the bytes the host carries out, none of them plaintext once it returns.
func sealedReply(ch *securechannel.Channel, results []core.Result, errstr string) []byte {
	var reply envelopeReply
	w := wire{b: make([]byte, 0, reply.size()+securechannel.HeaderSize+core.SecureReplySize(results, errstr)+securechannel.SealRoom)}
	reply.walk(&w)
	at := len(w.b)
	b := core.AppendSecureReply(append(w.b, make([]byte, securechannel.HeaderSize)...), results, errstr)
	b = ch.SealAt(b, at)
	binary.LittleEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	return b
}

func (e *envelopeReply) decode(b []byte) error {
	w := wire{b: b, dec: true}
	e.walk(&w)
	return w.end()
}

// --- async pipeline wire types ---

// fetchReply is one engine exchange's outcome inside the enclave, handed
// from the engine stage (the blocking round trip, or a flight's terminal
// step) to breaker accounting and settle. It never crosses the boundary.
type fetchReply struct {
	Status int
	Body   string // the one copy of the engine body; results alias it
	Err    string
	// Cancelled marks a flight the runtime or the trusted control plane
	// aborted (abandon, shutdown); the enclave releases its bookkeeping
	// without charging the upstream's breaker (the failure, if any, was
	// self-inflicted).
	Cancelled bool
}

// Resume verdicts: what a completion did to its pending request.
const (
	// resumePending: the request's fetch is still in flight (its flight's
	// next step, or a failover's first).
	resumePending = 1
	// resumeDone: final.
	resumeDone = 2
	// resumeOrphan: no live pending request wanted it — a cancelled
	// fetch, a late duplicate, or an already-finalized flight.
	resumeOrphan = 3
)

// resumeReply is the result of the "resume" ecall, one per completion.
type resumeReply struct {
	State     byte
	PendingID uint64
	// Reply is the leader's final encoded envelopeReply (resumeDone); Err
	// is the final request error when there is no reply (plain-query
	// failures surface as request errors, as on the blocking stage).
	Reply []byte
	Err   string
	// Followers carries every coalesced follower's own final reply — a
	// secure one sealed on the follower's own channel — out on the
	// leader's crossing.
	Followers []followerReply
	// DoneToken, when nonzero, names a flight token whose trusted state
	// machine just reached a terminal outcome (done, orphan, or
	// cancelled): the untrusted step handler drops its per-token state
	// (tombstone, conn binding) on seeing it.
	DoneToken uint64
}

// followerReply is one coalesced follower's final outcome inside a
// resumeReply: what the leader's Reply/Err pair is to the leader.
type followerReply struct {
	ID    uint64
	Reply []byte
	Err   string
}

func (rr *resumeReply) walk(w *wire) {
	w.u8(&rr.State, resumePending, resumeOrphan)
	w.u64(&rr.PendingID)
	w.u64(&rr.DoneToken)
	w.bytes(&rr.Reply)
	w.str(&rr.Err)
	// A follower is at least its id and two length prefixes.
	if n := w.count(len(rr.Followers), 8+2*4); w.dec && n > 0 {
		rr.Followers = make([]followerReply, n)
	}
	for i := range rr.Followers {
		w.u64(&rr.Followers[i].ID)
		w.bytes(&rr.Followers[i].Reply)
		w.str(&rr.Followers[i].Err)
	}
}

func (rr *resumeReply) encode() []byte {
	n := 1 + 2*8 + 3*4 + len(rr.Reply) + len(rr.Err)
	for _, f := range rr.Followers {
		n += 8 + 2*4 + len(f.Reply) + len(f.Err)
	}
	w := wire{b: make([]byte, 0, n)}
	rr.walk(&w)
	return w.b
}

func (rr *resumeReply) decode(b []byte) error {
	w := wire{b: b, dec: true}
	rr.walk(&w)
	return w.end()
}

// tlsStepArg is one socket I/O round of an engine exchange: what the
// blocking stage's stepper carries out in place over the socket ocalls, and
// the argument of the async "tls_step" ocall. The handler only ever moves
// opaque bytes — dial the engine, write the enclave's bytes, read at most
// tlsStepReadMax back, close retired conns — so the host's view of a fetch
// is the same on both stages: ciphertext and timing for a pinned-root
// upstream, the obfuscated request for a plain one. Token is the enclave-chosen correlation
// handle: the completion echoes it, "resume" routes by it, cancellation
// targets it. A step with Token 0 is a pure close batch and produces no
// completion payload.
type tlsStepArg struct {
	Token  uint64
	ConnID uint64
	// Dial opens a fresh TCP conn to Host and registers it under ConnID
	// before any Send/Read of this same step (TLS 1.3 lets the first
	// step carry dial + ClientHello + read in one ring round trip; a plain
	// exchange's only step carries dial + request + read).
	Dial bool
	Read bool
	// TimeoutMS, when positive, arms a read deadline of that many
	// milliseconds on the step (the remaining slice of the flight's
	// absolute FetchTimeout); zero clears any previous deadline.
	TimeoutMS uint64
	Host      string
	Send      []byte
	// Close lists retired conn handles to close (pool TTL evictions,
	// stale-retry victims) — piggybacked so eviction costs no extra ring
	// traffic.
	Close []uint64
}

func (a *tlsStepArg) walk(w *wire) {
	w.u64(&a.Token)
	w.u64(&a.ConnID)
	w.flag(&a.Dial)
	w.flag(&a.Read)
	w.u64(&a.TimeoutMS)
	w.str(&a.Host)
	w.bytes(&a.Send)
	w.u64s(&a.Close)
}

func (a *tlsStepArg) encode() []byte {
	w := wire{b: make([]byte, 0, 3*8+2+3*4+len(a.Host)+len(a.Send)+8*len(a.Close))}
	a.walk(&w)
	return w.b
}

func (a *tlsStepArg) decode(b []byte) error {
	w := wire{b: b, dec: true}
	a.walk(&w)
	return w.end()
}

// tlsStepReply is one tls_step completion, passed verbatim into the
// "resume" ecall. The token comes first so resume routes a completion by
// its leading 8 bytes and the flight it belongs to decodes the rest once.
// Everything in it is untrusted input: the enclave caps Data (which
// aliases the frame until the flight's adapter copies it) and treats Err
// as an opaque transport failure. On Err or EOF the handler has already
// closed and deregistered the conn. The handler never fails at the ocall
// layer for a live flight — transport errors travel in Err so the token
// always reaches the enclave for breaker accounting and cleanup.
type tlsStepReply struct {
	Token     uint64
	EOF       bool
	Cancelled bool
	Err       string
	Data      []byte
}

func (r *tlsStepReply) walk(w *wire) {
	w.u64(&r.Token)
	w.flag(&r.EOF)
	w.flag(&r.Cancelled)
	w.str(&r.Err)
	w.bytes(&r.Data)
}

func (r *tlsStepReply) encode() []byte {
	w := wire{b: make([]byte, 0, 8+2+2*4+len(r.Err)+len(r.Data))}
	r.walk(&w)
	return w.b
}

func (r *tlsStepReply) decode(b []byte) error {
	w := wire{b: b, dec: true}
	r.walk(&w)
	return w.end()
}

// The pending-table control. "abandon" (a parked request's caller has gone)
// takes the request's id as eight little-endian bytes and replies a
// tokenList.

func encodeID(id uint64) []byte { return binary.LittleEndian.AppendUint64(nil, id) }

func decodeID(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, errBadSeamFrame
	}
	return binary.LittleEndian.Uint64(b), nil
}

// tokenList is the result of the "abandon" ecall: the abandoned request's
// in-flight fetches, for the runtime to abort. Empty when the flight must
// continue (coalesced followers still ride it) or nothing is parked under
// the id.
type tokenList []uint64

func (t tokenList) encode() []byte {
	w := wire{b: make([]byte, 0, 4+8*len(t))}
	w.u64s((*[]uint64)(&t))
	return w.b
}

func (t *tokenList) decode(b []byte) error {
	w := wire{b: b, dec: true}
	w.u64s((*[]uint64)(t))
	return w.end()
}

// Batched ecall framing. The "request-batch" and "resume" ecalls carry
// several independent payloads across one enclave transition;
// the framing is deliberately dumb — a u32 entry count, then a u32 length
// prefix per entry — so the trusted decoder can validate wholly hostile
// input with two bounds checks per entry before any length drives an
// allocation.
const (
	// maxBatchEntries bounds one batched ecall's entry count — far above
	// any admissible BatchMax (capped at PipelineDepth), it exists so a
	// hostile count prefix cannot size a giant allocation.
	maxBatchEntries = 4096
	// maxBatchEntryBytes bounds one framed entry. The largest is a reply
	// coming out: a result list filtered from an engine body capped at
	// maxEngineResponse (8 MiB). A resume entry going in is one step
	// completion, tlsStepReadMax of data at most.
	maxBatchEntryBytes = 16 << 20
)

// encodeBatch frames entries for a batched ecall (either direction).
func encodeBatch(entries [][]byte) []byte {
	n := 4
	for _, e := range entries {
		n += 4 + len(e)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e)))
		out = append(out, e...)
	}
	return out
}

// decodeBatch reverses encodeBatch, treating the input as hostile.
func decodeBatch(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("proxy: batch frame truncated (%d bytes)", len(data))
	}
	count := binary.LittleEndian.Uint32(data)
	if count == 0 {
		return nil, fmt.Errorf("proxy: empty batch")
	}
	if count > maxBatchEntries {
		return nil, fmt.Errorf("proxy: batch count %d exceeds cap %d", count, maxBatchEntries)
	}
	data = data[4:]
	entries := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("proxy: batch entry %d truncated", i)
		}
		n := binary.LittleEndian.Uint32(data)
		if n > maxBatchEntryBytes {
			return nil, fmt.Errorf("proxy: batch entry %d length %d exceeds cap %d", i, n, maxBatchEntryBytes)
		}
		data = data[4:]
		if len(data) < int(n) {
			return nil, fmt.Errorf("proxy: batch entry %d truncated (%d of %d bytes)", i, len(data), n)
		}
		entries = append(entries, data[:n:n])
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("proxy: %d trailing bytes after batch", len(data))
	}
	return entries, nil
}

// batchItemReply is one entry of the "request-batch" reply frame: the
// exact encoded envelopeReply the entry would have gotten crossing alone,
// or the error it would have failed with. Per-entry errors must travel
// inside the frame — a batch ecall only fails as a whole for malformed
// framing. ("resume" frames bare resumeReply entries, which carry their
// own error.)
type batchItemReply struct {
	Reply []byte
	Err   string
}

func (it *batchItemReply) walk(w *wire) {
	w.bytes(&it.Reply)
	w.str(&it.Err)
}

func (it *batchItemReply) encode() []byte {
	w := wire{b: make([]byte, 0, 2*4+len(it.Reply)+len(it.Err))}
	it.walk(&w)
	return w.b
}

func (it *batchItemReply) decode(b []byte) error {
	w := wire{b: b, dec: true}
	it.walk(&w)
	return w.end()
}

// wire walks one seam frame in either direction: a message's walk method
// lists its fields once, and that one list both encodes and decodes them,
// so the two cannot disagree. Encoding appends to b. Decoding consumes b,
// which is hostile: no length is used before it has been checked against
// the bytes that remain, byte fields alias the input instead of copying
// it, the first failure sticks (later fields stay zero — a message is
// decoded into its zero value), and trailing bytes are an error. Integers
// are little-endian, like the batch framing.
type wire struct {
	b   []byte
	dec bool
	err error
}

var errBadSeamFrame = errors.New("proxy: seam frame truncated or malformed")

// end is a decode's verdict: the first failure, or trailing bytes.
func (w *wire) end() error {
	if w.err == nil && len(w.b) != 0 {
		return fmt.Errorf("proxy: %d trailing bytes after seam frame", len(w.b))
	}
	return w.err
}

// slot is the frame's next n bytes: fresh ones to fill when encoding, the
// input's own when decoding (nil once the frame has failed).
func (w *wire) slot(n int) []byte {
	if !w.dec {
		w.b = append(w.b, make([]byte, n)...)
		return w.b[len(w.b)-n:]
	}
	if w.err != nil || n > len(w.b) {
		w.err = errBadSeamFrame
		return nil
	}
	p := w.b[:n:n]
	w.b = w.b[n:]
	return p
}

// u8 is one byte that must lie in [lo, hi].
func (w *wire) u8(v *byte, lo, hi byte) {
	p := w.slot(1)
	if p == nil {
		return
	}
	if !w.dec {
		p[0] = *v
	} else if *v = p[0]; *v < lo || *v > hi {
		w.err = errBadSeamFrame
	}
}

func (w *wire) flag(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	w.u8(&b, 0, 1) // only the canonical bytes: an accepted frame re-encodes to itself
	*v = b == 1
}

func (w *wire) u64(v *uint64) {
	if p := w.slot(8); p == nil {
		return
	} else if w.dec {
		*v = binary.LittleEndian.Uint64(p)
	} else {
		binary.LittleEndian.PutUint64(p, *v)
	}
}

// count is a u32 element count: n going out, the decoded one coming back —
// refused unless the bytes that remain could hold that many elements of at
// least elemMin bytes, the bound every count-sized allocation rests on.
func (w *wire) count(n, elemMin int) int {
	p := w.slot(4)
	if p == nil {
		return 0
	}
	if !w.dec {
		binary.LittleEndian.PutUint32(p, uint32(n))
		return n
	}
	got := uint64(binary.LittleEndian.Uint32(p))
	if got*uint64(elemMin) > uint64(len(w.b)) {
		w.err = errBadSeamFrame
		return 0
	}
	return int(got)
}

// bytes is a length-prefixed field; decoded, it aliases the frame (nil
// when empty).
func (w *wire) bytes(v *[]byte) {
	p := w.slot(w.count(len(*v), 1))
	if !w.dec {
		copy(p, *v)
	} else if len(p) > 0 {
		*v = p
	}
}

func (w *wire) str(v *string) {
	p := w.slot(w.count(len(*v), 1))
	if !w.dec {
		copy(p, *v)
	} else {
		*v = string(p)
	}
}

func (w *wire) u64s(v *[]uint64) {
	if n := w.count(len(*v), 8); w.dec && n > 0 {
		*v = make([]uint64, n)
	}
	for i := range *v {
		w.u64(&(*v)[i])
	}
}
