package mux

import (
	"bytes"
	"testing"
)

// FuzzDecodeMuxFrame throws arbitrary bytes at both frame readers: the
// in-place decoder and the session's readFrame, which parses every byte a
// broker sends. Neither may panic or allocate past the cap; on every input
// both accept the same frame or both reject (readFrame's EOF and
// ErrUnexpectedEOF are rejections), and a decoded frame survives a
// re-encode. The corpus seeds cover every frame type plus each cap
// boundary.
func FuzzDecodeMuxFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: FrameOpen, Stream: 1, Payload: []byte{KindSecure}}))
	f.Add(AppendFrame(nil, Frame{Type: FrameData, Stream: 3, Payload: []byte("hello")}))
	f.Add(AppendFrame(nil, Frame{Type: FrameClose, Flags: FlagError, Stream: 5, Payload: []byte("err")}))
	f.Add(AppendFrame(nil, Frame{Type: FramePing, Payload: []byte("12345678")}))
	f.Add(AppendFrame(nil, Frame{Type: FrameWindow, Stream: 9, Payload: []byte{0, 0, 4, 0}}))
	f.Add(AppendFrame(nil, Frame{Type: FrameResume, Payload: []byte{0, 0, 0, 1}}))
	// Hostile headers: oversize length, unknown type, wrong fixed sizes.
	f.Add([]byte{FrameData, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{FramePing, 0, 0, 0, 0, 0, 0, 0, 0, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b, MaxFramePayload)
		rf, rerr := newFrameReader(bytes.NewReader(b)).readFrame()
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeFrame err %v, session readFrame err %v", err, rerr)
		}
		if err != nil {
			return
		}
		if n < headerLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(fr.Payload) > MaxFramePayload {
			t.Fatalf("payload %d bytes escaped the cap", len(fr.Payload))
		}
		if rf.Type != fr.Type || rf.Flags != fr.Flags || rf.Stream != fr.Stream ||
			!bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("session readFrame %+v != DecodeFrame %+v", rf, fr)
		}
		// Round trip: re-encoding a decoded frame must reproduce the
		// consumed bytes exactly.
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", b[:n], re)
		}
	})
}
