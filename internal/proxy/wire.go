package proxy

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"xsearch/internal/core"
)

// Request types crossing the enclave boundary. The envelope is what the
// untrusted runtime marshals into the single "request" ecall, mirroring the
// paper's narrow enclave interface.
const (
	typePlain     = "plain"
	typeHandshake = "handshake"
	typeSecure    = "secure"
)

// envelope is the argument of the "request" ecall.
type envelope struct {
	Type string `json:"type"`
	// Plain query (Type == typePlain).
	Query string `json:"query,omitempty"`
	// Handshake offer from the client (Type == typeHandshake).
	Offer json.RawMessage `json:"offer,omitempty"`
	// Secure record (Type == typeSecure).
	Session string `json:"session,omitempty"`
	Record  []byte `json:"record,omitempty"`
}

// envelopeReply is the result of the "request" ecall.
type envelopeReply struct {
	// Results of a plain query.
	Results []core.Result `json:"results,omitempty"`
	// Handshake reply.
	Offer   json.RawMessage `json:"offer,omitempty"`
	Session string          `json:"session,omitempty"`
	// ReportData echoes the value the enclave bound into its report so
	// the untrusted runtime can fetch a quote for it.
	ReportData []byte `json:"report_data,omitempty"`
	// Sealed response record for a secure request.
	Record []byte `json:"record,omitempty"`
	// Async pipeline: when Pending is nonzero the request parked inside
	// the enclave awaiting an async engine fetch; the final reply arrives
	// through the resume/claim ecalls. Upstream names the primary fetch's
	// engine (so the runtime can derive a p95-based hedge delay) and
	// CanHedge tells the runtime whether a hedge timer is worth arming.
	Pending  uint64 `json:"pending,omitempty"`
	Upstream string `json:"upstream,omitempty"`
	CanHedge bool   `json:"can_hedge,omitempty"`
}

// mergeReply is the result of the "merge" ecall: how many queries the
// sealed handoff blob carried and the net EPC byte delta of appending them.
type mergeReply struct {
	Added int   `json:"added"`
	Bytes int64 `json:"bytes"`
}

// --- async pipeline wire types ---

// fetchArg is the argument of the async "fetch" ocall: one full engine
// HTTP exchange performed by an untrusted worker goroutine. Token is the
// enclave-chosen correlation handle: the completion echoes it, the resume
// ecall routes by it, and cancellation targets it.
type fetchArg struct {
	Token     uint64 `json:"token"`
	Host      string `json:"host"`
	Path      string `json:"path"`
	KeepAlive bool   `json:"keep_alive,omitempty"`
}

// fetchReply is the async fetch completion, passed verbatim into the
// "resume" ecall. Everything in it is untrusted input: the enclave
// re-checks the body cap and re-parses the JSON. The handler never fails
// at the ocall layer — transport errors travel in Err so the token always
// reaches the enclave for breaker accounting and cleanup.
type fetchReply struct {
	Token  uint64 `json:"token"`
	Status int    `json:"status,omitempty"`
	Body   []byte `json:"body,omitempty"`
	Err    string `json:"err,omitempty"`
	// Cancelled marks a fetch the runtime aborted after the hedge winner
	// landed; the enclave releases its bookkeeping without charging the
	// upstream's breaker (the failure, if any, was self-inflicted).
	Cancelled bool `json:"cancelled,omitempty"`
}

// resumeReply is the result of the "resume" ecall: what the completion
// did to its pending request.
type resumeReply struct {
	// State is "pending" (another fetch is still in flight), "done"
	// (final), or "orphan" (no live pending request wanted it: a
	// cancelled loser, a late duplicate, or an already-finalized flight).
	State     string `json:"state"`
	PendingID uint64 `json:"pending_id,omitempty"`
	// Reply is the leader's final marshalled envelopeReply (State
	// "done"); Err is the final request error when there is no reply
	// (plain-query failures surface as request errors, as on the sync
	// path).
	Reply json.RawMessage `json:"reply,omitempty"`
	Err   string          `json:"error,omitempty"`
	// Waiters lists coalesced followers whose results are ready to claim;
	// CancelTokens lists still-outstanding loser fetches the runtime
	// should abort.
	Waiters      []uint64 `json:"waiters,omitempty"`
	CancelTokens []uint64 `json:"cancel_tokens,omitempty"`
	// DoneToken, when nonzero, names a TLS flight token whose trusted
	// state machine just reached a terminal outcome (done, orphan, or
	// cancelled): the untrusted fetcher drops its per-token TLS state
	// (tombstone, conn binding) on seeing it. Plain fetches never set it.
	DoneToken uint64 `json:"done_token,omitempty"`
}

// tlsStepArg is the argument of the async "tls_step" ocall: one
// ciphertext I/O round for an in-enclave TLS flight. The handler only
// ever moves opaque bytes — dial the engine, write the enclave's
// ciphertext, read at most tlsStepReadMax ciphertext bytes back, close
// retired conns — so the host's view of an HTTPS fetch stays exactly
// what it is on the blocking path: ciphertext and timing. A step with
// Token 0 is a pure close batch and produces no completion payload.
type tlsStepArg struct {
	Token  uint64 `json:"token"`
	ConnID uint64 `json:"conn_id,omitempty"`
	// Dial opens a fresh TCP conn to Host and registers it under ConnID
	// before any Send/Read of this same step (TLS 1.3 lets the first
	// step carry dial + ClientHello + read in one ring round trip).
	Dial bool   `json:"dial,omitempty"`
	Host string `json:"host,omitempty"`
	Send []byte `json:"send,omitempty"`
	Read bool   `json:"read,omitempty"`
	// Close lists retired conn handles to close (pool TTL evictions,
	// stale-retry victims) — piggybacked so eviction costs no extra ring
	// traffic.
	Close []uint64 `json:"close,omitempty"`
	// TimeoutMS, when positive, arms a read deadline of that many
	// milliseconds on the step (the remaining slice of the flight's
	// absolute FetchTimeout); zero clears any previous deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// tlsStepReply is one tls_step completion. Everything in it is untrusted
// input: the enclave caps Data and treats Err as an opaque transport
// failure. On Err or EOF the handler has already closed and deregistered
// the conn.
type tlsStepReply struct {
	Token     uint64 `json:"token"`
	Data      []byte `json:"data,omitempty"`
	EOF       bool   `json:"eof,omitempty"`
	Err       string `json:"err,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

// pendingArg names one parked request: the argument of the "hedge"
// (issue a hedge fetch for it), "claim" (redeem a coalesced follower's
// ready result) and "abandon" (its caller gave up) ecalls.
type pendingArg struct {
	PendingID uint64 `json:"pending_id"`
}

// hedgeReply reports whether a hedge was issued and whether another is
// still worth arming a timer for.
type hedgeReply struct {
	Hedged   bool   `json:"hedged"`
	Upstream string `json:"upstream,omitempty"`
	CanHedge bool   `json:"can_hedge,omitempty"`
}

// abandonReply lists the abandoned request's in-flight fetches for the
// runtime to abort. Freed reports that the trusted entry was released
// while still live — no future resume will reference the id, so the
// runtime may drop its abandoned mark immediately. CancelTokens is empty
// when the flight must continue (coalesced followers still ride it) or
// the request already finalized.
type abandonReply struct {
	Freed        bool     `json:"freed,omitempty"`
	CancelTokens []uint64 `json:"cancel_tokens,omitempty"`
}

// secureRequest is the plaintext the client seals into a record.
type secureRequest struct {
	Query string `json:"query"`
	Count int    `json:"count,omitempty"`
}

// secureResponse is the plaintext the enclave seals back.
type secureResponse struct {
	Results []core.Result `json:"results"`
	Err     string        `json:"err,omitempty"`
}

// Batched ecall framing. The "request-batch" and "resume" ecalls carry
// several independent JSON payloads across one enclave transition;
// the framing is deliberately dumb — a u32 entry count, then a u32 length
// prefix per entry — so the trusted decoder can validate wholly hostile
// input with two bounds checks per entry before any length drives an
// allocation.
const (
	// maxBatchEntries bounds one batched ecall's entry count — far above
	// any admissible BatchMax (capped at PipelineDepth), it exists so a
	// hostile count prefix cannot size a giant allocation.
	maxBatchEntries = 4096
	// maxBatchEntryBytes bounds one framed entry. Resume entries embed a
	// fetch reply whose body is capped at maxEngineResponse (8 MiB); the
	// JSON base64 expansion plus framing slack fits under 16 MiB.
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
// exact payload the entry would have gotten crossing alone, or the error
// it would have failed with. Per-entry errors must travel inside the frame
// — a batch ecall only fails as a whole for malformed framing. ("resume"
// frames bare resumeReply entries, which carry their own error.)
type batchItemReply struct {
	Reply json.RawMessage `json:"reply,omitempty"`
	Err   string          `json:"err,omitempty"`
}

// marshalBatchItem folds one entry's (reply, error) pair into one framed
// batch entry.
func marshalBatchItem(reply []byte, err error) []byte {
	item := batchItemReply{Reply: reply}
	if err != nil {
		item.Reply = nil
		item.Err = err.Error()
	}
	out, merr := json.Marshal(item)
	if merr != nil {
		out, _ = json.Marshal(batchItemReply{Err: "proxy: marshal batch item"})
	}
	return out
}
