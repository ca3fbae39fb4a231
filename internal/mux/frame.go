// Package mux implements the multiplexed client edge: many logical
// client streams — attested handshakes, sealed secure records, plain
// queries, keepalive heartbeats — ride one long-lived connection into
// the gateway, instead of one TCP/HTTP connection per request. At the
// ROADMAP's millions-of-users scale the edge drowns in connections long
// before the enclaves are warm; an smux-style framed transport holds
// one conn per broker host (or per browser extension, over the
// WebSocket framing in ws.go) and carries every session on it.
//
// The package owns four layers:
//
//   - the frame codec (this file): length-prefixed binary frames with
//     hostile-input caps checked before any allocation, mirroring the
//     ecall wire codec's discipline (internal/proxy/wire.go);
//   - sessions and streams (session.go): per-stream credit-based flow
//     control, keepalive heartbeats with dead-peer detection, and a
//     one-request/one-response stream RPC shape;
//   - the WebSocket byte-stream adapter (ws.go), so browser-extension
//     clients can speak the same frames over RFC 6455;
//   - the reconnecting client (redial.go): a dropped transport conn
//     re-dials and resumes live secure-channel sessions by session ID
//     without re-attestation — the channel keys live in the broker and
//     the enclave, so only the carrier needs replacing.
//
// # What an exchange costs on the conn
//
// A small call is one conn write and one conn read in each direction and
// no flow-control traffic; three rules get it there.
//
// Writes are coalesced. A stream's frames leave in as few conn writes as
// the data allows: OPEN, DATA and CLOSE of a request that fits one chunk
// are one write, the reply's DATA and CLOSE another. A larger or
// credit-blocked body is the same loop writing once per chunk. One write
// never exceeds headerLen+MaxFramePayload bytes, because the WebSocket
// carrier sends each write as one message and refuses a larger one —
// which is why a chunk of stream data is a little under MaxFramePayload
// (maxChunk leaves room for the OPEN and CLOSE around it). Control frames
// (ping, pong, window, resume, abortive close) are written alone.
//
// Credit is returned lazily. A receiver adds up what it has buffered per
// stream and sends one WINDOW once half a window (Config.Window/2) is
// owed — none for an exchange smaller than that, none for a stream whose
// peer has already finished. The sender still never has more than Window
// unacknowledged bytes on a stream, and the rule cannot deadlock: a
// sender stalled at zero credit has a whole Window in flight, so when it
// lands the receiver owes at least Window/2 and says so. Both ends must
// run the same Window.
//
// Reads are buffered per conn. readLoop reads through one bufio.Reader,
// so the frames of a coalesced write arrive in one read; headers and
// control payloads are parsed in place, only stream payloads are
// allocated, and a one-frame body is handed to the stream without a
// copy. The buffer belongs to the conn, not to the attested sessions
// riding it, so the per-session footprint of the edge is unchanged.
package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types. The codec rejects anything else before reading a payload.
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
	// FrameWindow grants the peer send credit on a stream; payload is a
	// 4-byte big-endian byte count.
	FrameWindow byte = 0x6
	// FrameResume announces, after a transport reconnect, how many live
	// secure-channel sessions the client is resuming (4-byte count).
	// Purely observational: session state lives in the gateway and the
	// enclaves, so resumption needs no server-side action — but the
	// fleet counts it, and TestMuxReconnectResumesSecureSession asserts
	// resumed sessions never re-attest.
	FrameResume byte = 0x7
)

// FlagError on a FrameClose marks an abortive close; the payload is the
// error message.
const FlagError byte = 0x1

// Stream kinds carried in FrameOpen payloads. They map one-to-one onto
// the gateway's client-facing endpoints.
const (
	KindHandshake byte = 0x1 // attested channel setup (POST /handshake)
	KindSecure    byte = 0x2 // one sealed record round trip (POST /secure)
	KindPlain     byte = 0x3 // one plain query (GET /search)
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
// DecodeFrame and is freshly allocated on ReadFrame.
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
	if f.Type < FrameOpen || f.Type > FrameResume {
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
	case FrameWindow, FrameResume:
		if length != 4 {
			return Frame{}, 0, fmt.Errorf("%w: type 0x%x payload %d bytes, want 4", ErrBadFrame, f.Type, length)
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

// ReadFrame reads one frame from r, validating the header caps before
// allocating the payload.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f, length, err := parseHeader(hdr[:], maxPayload)
	if err != nil {
		return Frame{}, err
	}
	if length > 0 {
		f.Payload = make([]byte, length)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("mux: short payload: %w", err)
		}
	}
	return f, nil
}
