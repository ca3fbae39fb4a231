// Package mux implements the multiplexed client edge: many logical
// client streams — attested handshakes, sealed secure records, keepalive
// heartbeats — ride one long-lived TCP connection into the gateway,
// instead of one TCP/HTTP connection per request. At the ROADMAP's
// millions-of-users scale the edge drowns in connections long before the
// enclaves are warm; an smux-style framed transport holds one conn per
// broker host and carries every session on it.
//
// The package owns three layers:
//
//   - the frame codec (this file): length-prefixed binary frames with
//     hostile-input caps checked before any allocation, mirroring the
//     ecall wire codec's discipline (internal/proxy/wire.go);
//   - sessions and streams (session.go): a one-request/one-response
//     stream RPC shape, per-stream size caps, and keepalive heartbeats
//     with dead-peer detection;
//   - the reconnecting client (redial.go): a dropped transport conn is
//     re-dialed and the live secure-channel sessions ride the new one
//     without re-attestation — the channel keys live in the broker and
//     the enclave, and a session id names its shard, so only the carrier
//     needs replacing and the server needs no word of it.
//
// # What an exchange costs on the conn
//
// A small call is one conn write and one conn read in each direction and
// nothing else; two rules get it there.
//
// Writes are coalesced. A stream's frames leave in as few conn writes as
// the data allows: OPEN, DATA and CLOSE of a request that fits one chunk
// are one write, the reply's DATA and CLOSE another. A larger body is the
// same loop writing once per chunk. One write never exceeds
// headerLen+MaxFramePayload bytes — the largest frame a peer may send — so
// a session's write buffer stays one frame long however big the body;
// that is why a chunk of stream data is a little under MaxFramePayload
// (maxChunk leaves room for the OPEN and CLOSE around it). Control frames
// (ping, pong, abortive close) are written alone.
//
// Reads are buffered per conn. readLoop reads through one bufio.Reader,
// so the frames of a coalesced write arrive in one read; headers and
// control payloads are parsed in place, only stream payloads are
// allocated, and a one-frame body is handed to the stream without a
// copy. The buffer belongs to the conn, not to the attested sessions
// riding it, so the per-session footprint of the edge is unchanged.
//
// # What bounds a session
//
// Caps and chunks bound memory and fairness. A stream's buffered bytes
// are capped (maxRequest on the serving side, maxResponse on the calling
// side: past the cap the stream is aborted, the session lives) and
// MaxStreams caps the streams, so a session's memory is bounded with no
// flow-control window of its own; TCP's flow control paces the conn. Each chunk is its own write under the session's write
// lock, so one large body interleaves with the other streams' frames
// instead of stalling them.
//
// # Who runs the handler
//
// A completed request goes to a worker goroutine parked on the session,
// or to a new one when none is parked, so a slow handler queues no other
// request and MaxStreams stays the only bound on concurrency. A worker
// parks again after replying unless maxIdleWorkers (4) wait already, and
// exits when the session ends: a goroutine per request grew a fresh stack
// inside the channel's open on every call, 14 % of an edge call's CPU.
package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame types. The codec rejects any other before reading a payload; the
// retired 0x6 and 0x7 are never reused, so an old peer's is refused.
const (
	// FrameOpen opens a client-initiated stream; payload is the 1-byte
	// stream kind.
	FrameOpen byte = 0x1
	// FrameData carries stream bytes.
	FrameData byte = 0x2
	// FrameClose half-closes a stream from the sender's side. With
	// FlagError set the payload is an error message and the stream is
	// torn down instead of finishing cleanly.
	FrameClose byte = 0x3
	// FramePing and FramePong are the session heartbeat; payload is an
	// 8-byte opaque token the pong echoes.
	FramePing byte = 0x4
	FramePong byte = 0x5
)

// FlagError on a FrameClose marks an abortive close; the payload is the
// error message. FlagCallerFault beside it: the handler blamed the request
// (a malformed body, an unknown kind), which no retry cures. A peer that
// reads no such bit sees a plain abortive close.
const FlagError, FlagCallerFault byte = 0x1, 0x2

// Stream kinds carried in FrameOpen payloads. They map one-to-one onto
// the gateway's client-facing endpoints.
const (
	KindHandshake byte = 0x1 // attested channel setup (POST /handshake)
	KindSecure    byte = 0x2 // one sealed record round trip (POST /secure)
)

// Codec caps, checked before any allocation. A hostile peer controls
// every header field; nothing it says is trusted until bounded.
const (
	// headerLen is the fixed frame header: type(1) flags(1) stream(4)
	// length(4), big-endian.
	headerLen = 10
	// MaxFramePayload bounds one frame's payload. Data larger than this
	// is chunked by the sender; a frame claiming more is hostile.
	MaxFramePayload = 256 << 10
	// maxCloseErrBytes bounds the error text carried by an abortive
	// close (longer messages are truncated by the sender).
	maxCloseErrBytes = 1 << 10
	// pingPayloadLen is the exact FramePing/FramePong payload size.
	pingPayloadLen = 8
)

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("mux: frame payload exceeds cap")
	ErrBadFrame      = errors.New("mux: malformed frame")
)

// Frame is one decoded frame. Payload aliases the decode buffer on
// DecodeFrame, and on readFrame too unless it is a stream payload.
type Frame struct {
	Type    byte
	Flags   byte
	Stream  uint32
	Payload []byte
}

// parseHeader decodes the fixed header at the head of hdr (at least
// headerLen bytes) and checks the fields a hostile peer controls —
// maxPayload guards the length before any allocation happens.
func parseHeader(hdr []byte, maxPayload uint32) (f Frame, length uint32, err error) {
	f = Frame{Type: hdr[0], Flags: hdr[1], Stream: binary.BigEndian.Uint32(hdr[2:6])}
	length = binary.BigEndian.Uint32(hdr[6:10])
	if f.Type < FrameOpen || f.Type > FramePong {
		return Frame{}, 0, fmt.Errorf("%w: unknown type 0x%x", ErrBadFrame, f.Type)
	}
	if length > maxPayload {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes (cap %d)", ErrFrameTooLarge, length, maxPayload)
	}
	switch f.Type {
	case FramePing, FramePong:
		if length != pingPayloadLen {
			return Frame{}, 0, fmt.Errorf("%w: ping payload %d bytes, want %d", ErrBadFrame, length, pingPayloadLen)
		}
	case FrameOpen:
		if length != 1 {
			return Frame{}, 0, fmt.Errorf("%w: open payload %d bytes, want 1", ErrBadFrame, length)
		}
	}
	return f, length, nil
}

// AppendFrame encodes f onto dst and returns the extended slice. The
// caller is responsible for keeping payloads within MaxFramePayload;
// encode is the trusted direction.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [headerLen]byte
	hdr[0] = f.Type
	hdr[1] = f.Flags
	binary.BigEndian.PutUint32(hdr[2:6], f.Stream)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// DecodeFrame parses one frame from the head of b, returning the frame
// and the bytes consumed. It never panics on hostile input and never
// allocates before the caps pass; Payload aliases b.
func DecodeFrame(b []byte, maxPayload uint32) (Frame, int, error) {
	if len(b) < headerLen {
		return Frame{}, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadFrame, len(b))
	}
	f, length, err := parseHeader(b, maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	if uint32(len(b)-headerLen) < length {
		return Frame{}, 0, fmt.Errorf("%w: payload truncated (%d of %d bytes)",
			ErrBadFrame, len(b)-headerLen, length)
	}
	end := headerLen + int(length)
	f.Payload = b[headerLen:end:end]
	return f, end, nil
}
