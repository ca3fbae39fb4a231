package mux

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// The WebSocket adapter speaks just enough RFC 6455, over the standard
// library only, to carry mux frames as binary messages: a browser
// extension cannot open a raw TCP socket, so the edge accepts the same
// framed protocol over an HTTP upgrade. Each session write — one whole
// mux frame, or a few coalesced — travels as one binary message; the
// adapter exposes the ordered payload bytes as an
// io.ReadWriteCloser that Session reads frames from, so the layers above
// never know which carrier they are on.

// RFC 6455 constants.
const (
	wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

	wsOpContinuation = 0x0
	wsOpText         = 0x1
	wsOpBinary       = 0x2
	wsOpClose        = 0x8
	wsOpPing         = 0x9
	wsOpPong         = 0xA

	// wsMaxPayload bounds one WebSocket frame's payload: the largest write
	// a session issues (a full mux frame with its header) always fits, and
	// anything larger is hostile.
	wsMaxPayload = MaxFramePayload + headerLen
	// wsMaxControlPayload is RFC 6455's cap for control-frame payloads.
	wsMaxControlPayload = 125
)

var errWSClosed = errors.New("mux: websocket closed by peer")

// wsConn adapts a WebSocket connection to the byte-stream contract the
// session layer wants. Writes emit one binary message per call (the
// session writes whole mux frames, within wsMaxPayload per call); reads
// drain message payloads in order, answering pings and surfacing a peer
// close as EOF.
type wsConn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // clients mask what they send; servers must not

	rbuf []byte // unread tail of the current message payload
}

func (c *wsConn) Read(p []byte) (int, error) {
	for len(c.rbuf) == 0 {
		payload, err := c.readMessage()
		if err != nil {
			if errors.Is(err, errWSClosed) {
				return 0, io.EOF
			}
			return 0, err
		}
		c.rbuf = payload
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

func (c *wsConn) Write(p []byte) (int, error) {
	if err := c.writeFrame(wsOpBinary, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *wsConn) Close() error {
	// Best-effort close frame; the TCP close is what matters.
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = c.writeFrame(wsOpClose, nil)
	return c.conn.Close()
}

func (c *wsConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// readMessage reads one complete data message, transparently handling
// control frames and continuations, with every length checked against
// the caps before allocation.
func (c *wsConn) readMessage() ([]byte, error) {
	var msg []byte
	inMessage := false
	for {
		fin, op, payload, err := c.readRawFrame()
		if err != nil {
			return nil, err
		}
		switch op {
		case wsOpPing:
			if err := c.writeFrame(wsOpPong, payload); err != nil {
				return nil, err
			}
			continue
		case wsOpPong:
			continue
		case wsOpClose:
			_ = c.writeFrame(wsOpClose, nil)
			return nil, errWSClosed
		case wsOpBinary, wsOpText:
			if inMessage {
				return nil, fmt.Errorf("%w: data frame inside fragmented message", ErrBadFrame)
			}
			msg = payload
			inMessage = true
		case wsOpContinuation:
			if !inMessage {
				return nil, fmt.Errorf("%w: continuation without a message", ErrBadFrame)
			}
			if len(msg)+len(payload) > wsMaxPayload {
				return nil, fmt.Errorf("%w: fragmented message exceeds %d bytes", ErrFrameTooLarge, wsMaxPayload)
			}
			msg = append(msg, payload...)
		default:
			return nil, fmt.Errorf("%w: unknown websocket opcode 0x%x", ErrBadFrame, op)
		}
		if fin {
			return msg, nil
		}
	}
}

// readRawFrame reads one WebSocket frame, enforcing masking rules (the
// side a frame comes from decides whether masking is mandatory) and the
// payload caps.
func (c *wsConn) readRawFrame() (fin bool, op byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(c.br, hdr[:]); err != nil {
		return false, 0, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return false, 0, nil, fmt.Errorf("%w: reserved websocket bits set", ErrBadFrame)
	}
	op = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	// Clients must mask, servers must not (RFC 6455 §5.1); a violation
	// here is a broken or hostile peer either way.
	if c.client == masked {
		return false, 0, nil, fmt.Errorf("%w: wrong masking for direction", ErrBadFrame)
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if op >= wsOpClose {
		if !fin || length > wsMaxControlPayload {
			return false, 0, nil, fmt.Errorf("%w: oversize or fragmented control frame", ErrBadFrame)
		}
	} else if length > wsMaxPayload {
		return false, 0, nil, fmt.Errorf("%w: websocket payload %d bytes (cap %d)", ErrFrameTooLarge, length, wsMaxPayload)
	}
	var maskKey [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, maskKey[:]); err != nil {
			return false, 0, nil, err
		}
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return false, 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= maskKey[i%4]
		}
	}
	return fin, op, payload, nil
}

// writeFrame emits one FIN frame, masking when this side is the client.
func (c *wsConn) writeFrame(op byte, payload []byte) error {
	hdr := make([]byte, 0, 14)
	hdr = append(hdr, 0x80|op)
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	switch {
	case len(payload) < 126:
		hdr = append(hdr, maskBit|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		hdr = append(hdr, maskBit|126, byte(len(payload)>>8), byte(len(payload)))
	default:
		hdr = append(hdr, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(len(payload)))
		hdr = append(hdr, ext[:]...)
	}
	out := hdr
	if c.client {
		var maskKey [4]byte
		if _, err := rand.Read(maskKey[:]); err != nil {
			return err
		}
		out = append(out, maskKey[:]...)
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ maskKey[i%4]
		}
		out = append(out, masked...)
	} else {
		out = append(out, payload...)
	}
	_, err := c.conn.Write(out)
	return err
}

// DialWS opens a WebSocket connection to rawURL (ws://host:port/path)
// and returns it as a byte stream ready for a mux Session. Standard
// library only: the handshake is a hand-rolled HTTP/1.1 upgrade.
func DialWS(rawURL string, timeout time.Duration) (io.ReadWriteCloser, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("mux: websocket url: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("mux: unsupported websocket scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host += ":80"
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	var keyRaw [16]byte
	if _, err := rand.Read(keyRaw[:]); err != nil {
		_ = conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	path := u.Path
	if path == "" {
		path = "/"
	}
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", path, u.Host, key)
	if _, err := conn.Write([]byte(req)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("mux: websocket handshake: %w", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		_ = conn.Close()
		return nil, fmt.Errorf("mux: websocket handshake refused: %s", resp.Status)
	}
	if got, want := resp.Header.Get("Sec-WebSocket-Accept"), wsAccept(key); got != want {
		_ = conn.Close()
		return nil, fmt.Errorf("mux: websocket accept mismatch")
	}
	_ = conn.SetDeadline(time.Time{})
	return &wsConn{conn: conn, br: br, client: true}, nil
}

// UpgradeWS answers a WebSocket upgrade request on an HTTP handler and
// returns the hijacked connection as a byte stream for a mux Session.
// On failure it has already written the HTTP error response.
func UpgradeWS(w http.ResponseWriter, r *http.Request) (io.ReadWriteCloser, error) {
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket upgrade required", http.StatusBadRequest)
		return nil, fmt.Errorf("mux: not a websocket upgrade")
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, fmt.Errorf("mux: unsupported websocket version")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, fmt.Errorf("mux: missing websocket key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported on this listener", http.StatusInternalServerError)
		return nil, fmt.Errorf("mux: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("mux: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return &wsConn{conn: conn, br: rw.Reader, client: false}, nil
}

// wsAccept derives the Sec-WebSocket-Accept value for a key (RFC 6455
// §4.2.2). SHA-1 is mandated by the RFC for this non-security checksum.
func wsAccept(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether a comma-separated header contains the
// token (Connection headers legally carry lists, e.g. "keep-alive,
// Upgrade").
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}
