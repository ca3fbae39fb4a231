package proxy

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"xsearch/internal/client"
	"xsearch/internal/mux"
)

// FuzzParseResponse fuzzes the enclave's HTTP/1.1 streaming response
// parser — the one component that consumes wholly hostile bytes (every
// engine response crosses the untrusted runtime) — differentially, against
// the reader frozen in response_frozen_test.go. On every input, read whole
// and a byte per Read, the two agree on error-or-not and, where both accept,
// on status, keep-alive, body and the bytes left unread. The two allowed
// differences are the refusals wantRefusal predicts from the raw bytes:
// errBadStatus, a status code that is not three digits, and errBadFraming,
// an ambiguous body length the frozen reader guessed at. An accepted status
// is three digits.
func FuzzParseResponse(f *testing.F) {
	for _, seed := range []string{
		// Keep-alive with Content-Length framing.
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello",
		// Chunked framing with an extension and a trailer.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n",
		// HTTP/1.0 read-to-EOF body.
		"HTTP/1.0 200 OK\r\n\r\nunfraaamed body",
		// Truncated mid-headers.
		"HTTP/1.1 200 OK\r\nContent-Le",
		// Truncated mid-chunk.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nshort",
		// Oversized declared length.
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
		// Negative chunk size and hostile status line.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n",
		"garbage with no\nstructure at all",
		// Connection: close with error status.
		"HTTP/1.1 503 Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
		// Header bomb start (the cap must cut it off).
		"HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Pad: aaaaaaaa\r\n", 64),
		// Ten-digit lengths: one over the cap, one that is 5 with leading zeros.
		"HTTP/1.1 200 OK\r\nContent-Length: 2000000000\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 0000000005\r\n\r\nhello",
		// A signed chunk size, which ParseInt takes.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n+1a\r\n" + strings.Repeat("z", 26) + "\r\n0\r\n\r\n",
		// Bare-LF lines and a chunk size padded with spaces.
		"HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n\n 3 \nabc\r\n0\n\n",
		// A header line longer than bufio's 4 KiB buffer.
		"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("l", 5000) + "\r\nContent-Length: 2\r\n\r\nok",
		// Several chunks, and a pipelined response behind them.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n1\r\nd\r\n10\r\n" + strings.Repeat("e", 16) + "\r\n0\r\n\r\nHTTP/1.1 200 OK\r\n",
		// Unicode lowering: a Kelvin sign for the k of keep-alive, U+0130 for an i.
		"HTTP/1.0 200 OK\r\nConnection: \u212Aeep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nConnect\u0130on: close\r\nTransfer-Encoding: chun\u212Aed\r\n\r\n0\r\n\r\n",
		// Ambiguous framing: CL+TE, conflicting lengths, a negative and a non-numeric one.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\nab",
		// A Content-Length that is only in the body is no framing at all.
		"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\nContent-Length: -5\r\n",
		// Status codes that are not three digits, and one with no reason phrase.
		"HTTP/1.1 -5 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 +20 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 0200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 099 Odd\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		frozen := bufio.NewReader(bytes.NewReader(data))
		wantBody, wantStatus, wantKeep, wantErr := frozenReadHTTPResponse(frozen)
		wantRest, _ := io.ReadAll(frozen)
		refusal := wantRefusal(data)
		for _, src := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
			br := bufio.NewReader(src)
			body, status, keepAlive, err := readHTTPResponse(br)
			switch {
			case wantErr != nil:
				if err == nil {
					t.Fatalf("accepted what the frozen reader refuses (%v)", wantErr)
				}
			case refusal != nil:
				if !errors.Is(err, refusal) {
					t.Fatalf("got %v, want %v", err, refusal)
				}
			case err != nil:
				t.Fatalf("refused what the frozen reader accepts: %v", err)
			default:
				rest, _ := io.ReadAll(br)
				if body != string(wantBody) || status != wantStatus || keepAlive != wantKeep || !bytes.Equal(rest, wantRest) {
					t.Fatalf("got body %q status %d keep-alive %t rest %q\nwant %q %d %t %q",
						body, status, keepAlive, rest, wantBody, wantStatus, wantKeep, wantRest)
				}
				if len(body) > maxEngineResponse {
					t.Fatalf("accepted %d-byte body beyond the %d cap", len(body), maxEngineResponse)
				}
				if status < 0 || status > 999 {
					t.Fatalf("status %d accepted, not three digits", status)
				}
			}
		}
	})
}

// wantRefusal is the production reader's refusal of a response the frozen
// reader accepts, worked out from the raw bytes, with lines split and
// headers matched the frozen reader's way: errBadStatus for a status code
// that is not three digits; errBadFraming for a header section with
// Transfer-Encoding beside Content-Length, or a Content-Length that is not
// 1*DIGIT, or two that differ; nil when the two readers must agree.
func wantRefusal(data []byte) error {
	lines := strings.SplitAfter(string(data), "\n")
	if _, code, ok := strings.Cut(lines[0], " "); ok {
		code, _, _ = strings.Cut(code, " ")
		if code = strings.TrimSpace(code); len(code) != 3 || strings.Trim(code, "0123456789") != "" {
			return errBadStatus
		}
	}
	te, length := false, int64(-1)
	for _, line := range lines[1:] {
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
			te = true
		case "content-length":
			n, err := strconv.ParseUint(value, 10, 63) // digits only: no sign
			if err != nil || length >= 0 && int64(n) != length {
				return errBadFraming
			}
			length = int64(n)
		}
	}
	if te && length >= 0 {
		return errBadFraming
	}
	return nil
}

// FuzzDecodeBatch fuzzes the batched-ecall frame decoder: the count and
// length prefixes are hostile input (the untrusted batcher frames them),
// so no prefix may panic the decoder, drive an oversized allocation, or
// yield entries that do not round-trip through encodeBatch.
func FuzzDecodeBatch(f *testing.F) {
	// Well-formed single- and multi-entry frames.
	f.Add(encodeBatch([][]byte{[]byte(`{"type":"plain","query":"q"}`)}))
	f.Add(encodeBatch([][]byte{[]byte("a"), []byte(""), []byte("ccc")}))
	// Truncated header, zero count, hostile count, oversized entry length.
	f.Add([]byte{1, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	// Entry truncated mid-payload and trailing garbage.
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0, 'x', 'y'})
	f.Add(append(encodeBatch([][]byte{[]byte("ok")}), 0xAA))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeBatch(data)
		if err != nil {
			return
		}
		if len(entries) == 0 || len(entries) > maxBatchEntries {
			t.Fatalf("accepted frame with %d entries", len(entries))
		}
		var total int
		for i, e := range entries {
			if len(e) > maxBatchEntryBytes {
				t.Fatalf("entry %d is %d bytes, beyond the %d cap", i, len(e), maxBatchEntryBytes)
			}
			total += len(e)
		}
		if total > len(data) {
			t.Fatalf("entries total %d bytes from a %d-byte frame", total, len(data))
		}
		if !bytes.Equal(encodeBatch(entries), data) {
			t.Fatal("accepted frame does not round-trip through encodeBatch")
		}
	})
}

// FuzzTLSRecordAdapter fuzzes the trusted TLS flight over hostile
// ciphertext streams: the fuzzer plays the untrusted runtime, feeding the
// coroutine's step asks arbitrary bytes fragmented or coalesced by the
// chunk parameter, then EOF. The flight (stepConn adapter + crypto/tls +
// response parser) must never panic and must always reach a terminal
// outcome — the ping-pong protocol may not wedge on any stream shape.
func FuzzTLSRecordAdapter(f *testing.F) {
	// A TLS alert record (handshake_failure), cleanly framed.
	f.Add([]byte{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x28}, byte(1))
	// A handshake record promising more than it delivers.
	f.Add([]byte{0x16, 0x03, 0x03, 0x00, 0x40, 0x02, 0x00, 0x00, 0x3c}, byte(3))
	// An oversized record bomb header.
	f.Add([]byte{0x16, 0x03, 0x03, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef}, byte(64))
	// Plaintext where ciphertext should be.
	f.Add([]byte("HTTP/1.1 200 OK\r\n\r\nnot tls at all"), byte(7))
	f.Add([]byte{}, byte(1))

	f.Fuzz(func(t *testing.T, stream []byte, chunk byte) {
		ts := &trustedState{flightStop: make(chan struct{})}
		defer close(ts.flightStop)
		u := &upstream{
			host: "127.0.0.1:443",
			cas:  x509.NewCertPool(),
			tlsConf: &tls.Config{
				RootCAs:    x509.NewCertPool(),
				ServerName: "127.0.0.1",
			},
		}
		fl := ts.newTLSFlight(1)
		go ts.runTLSFlight(fl, u, "/search?q=fuzz")

		size := int(chunk)%256 + 1
		rest := stream
		out, ok := fl.recv()
		for i := 0; ok && !out.done; i++ {
			if i > 4096 {
				t.Fatal("flight never reached a terminal outcome")
			}
			if out.ask == nil {
				t.Fatal("non-terminal park without a step ask")
			}
			var in tlsStepIn
			if out.ask.Read && len(rest) > 0 {
				n := size
				if n > len(rest) {
					n = len(rest)
				}
				in = tlsStepIn{data: rest[:n]}
				rest = rest[n:]
			} else if out.ask.Read {
				in = tlsStepIn{eof: true}
			}
			out, ok = fl.step(in)
		}
		if !ok {
			t.Fatal("flight cancelled without an abort")
		}
		if out.reply.Err == "" && !out.reply.Cancelled {
			t.Fatal("hostile ciphertext produced a successful fetch reply")
		}
		if out.pooled != nil {
			t.Fatal("failed exchange offered its session to the pool")
		}
	})
}

// FuzzSeamCodec fuzzes the five binary seam decoders — envelope (hostile:
// the untrusted runtime frames it), envelopeReply (parked or final),
// batchItemReply, resumeReply (with its follower replies) and "abandon"'s
// tokenList. None may panic or size an allocation from a length the
// input does not back; what one accepts must re-encode to exactly the
// bytes it was decoded from (so trailing bytes cannot be accepted), and
// decoding that again must give the same value. An envelope is a
// handshake or a sealed query: a type-1 frame (a query in the clear, as
// the host once could send one) is refused whatever follows it.
func FuzzSeamCodec(f *testing.F) {
	secure := envelope{Type: typeSecure, Session: "0123456789abcdef0123456789abcdef", Record: []byte("sealed")}
	final := envelopeReply{Record: []byte("sealed reply")}
	parked := envelopeReply{Pending: 7}
	hs := envelopeReply{Offer: []byte(`{"role":2}`), Session: "ab", ReportData: make([]byte, 64)}
	followers := []followerReply{{ID: 4, Reply: final.encode()}, {ID: 5, Err: "proxy: unknown session"}}
	done := resumeReply{State: resumeDone, PendingID: 3, Reply: final.encode(), Followers: followers, DoneToken: 2}
	failed := resumeReply{State: resumeDone, PendingID: 3, Err: "proxy: unknown session"}
	item := batchItemReply{Reply: parked.encode()}
	itemErr := batchItemReply{Err: "proxy: bad secure request"}
	typeOne := append([]byte{1}, secure.encode()[1:]...) // a sealed envelope relabelled
	for _, seed := range [][]byte{
		secure.encode(), final.encode(), parked.encode(), hs.encode(),
		done.encode(), failed.encode(), item.encode(), itemErr.encode(), tokenList{9, 11}.encode(),
		{}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		typeOne, plainEnvelope(7, "chicken recipe"), {1},
		append(secure.encode(), 0xAA),                                     // trailing byte
		{typeSecure, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 'q'}, // length far past the input
		append(make([]byte, 8+3*4), 0xFF, 0xFF, 0xFF, 0xFF),               // reply: record-length bomb
		append(make([]byte, 1+8+8+4+4), 0xFF, 0xFF, 0xFF, 0x0F),           // resume: follower-count bomb
		{0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3, 4, 5, 6, 7, 8},                  // abandon: token-count bomb
	} {
		f.Add(seed)
	}
	type codec interface {
		decode([]byte) error
		encode() []byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() codec{
			func() codec { return new(envelope) },
			func() codec { return new(envelopeReply) },
			func() codec { return new(batchItemReply) },
			func() codec { return new(resumeReply) },
			func() codec { return new(tokenList) },
		} {
			v := fresh()
			var err error
			// Whatever the prefixes claim, a decode allocates for fields the
			// input really holds: at most one string or slice per 4 bytes.
			// (Averaged over a few runs: a GC between two of them empties
			// fmt's printer pool, and the refusal's Errorf then costs two
			// allocations that are not the decoder's.)
			allocs := testing.AllocsPerRun(4, func() { err = v.decode(data) })
			if max := float64(len(data)/4 + 2); allocs > max {
				t.Fatalf("%T: %v allocations decoding %d bytes", v, allocs, len(data))
			}
			if err != nil {
				continue
			}
			if e, ok := v.(*envelope); ok && e.Type != typeHandshake && e.Type != typeSecure {
				t.Fatalf("envelope of type %d accepted", e.Type)
			}
			if !bytes.Equal(v.encode(), data) {
				t.Fatalf("%T: accepted frame does not re-encode to itself", v)
			}
			again := fresh()
			if err := again.decode(v.encode()); err != nil || !reflect.DeepEqual(again, v) {
				t.Fatalf("%T: decode(encode(v)) = %+v, %v; want %+v", v, again, err, v)
			}
		}
	})
}

// plainEnvelope is the frame a plaintext query crossed in before the
// decoder stopped admitting one: type 1, the runtime's id, the query, and
// empty offer, session and record fields.
func plainEnvelope(id uint64, query string) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{1}, id)
	b = append(binary.LittleEndian.AppendUint32(b, uint32(len(query))), query...)
	return append(b, make([]byte, 3*4)...)
}

// FuzzMuxSecureBody fuzzes the edges' parse of a secure call body (len ‖
// session id ‖ record) through ServeCall: hostile bytes are refused as a
// BadRequest the front counts — never a panic — and an accepted body is
// exactly what client.AppendSecureBody builds from the parts the front was
// handed.
func FuzzMuxSecureBody(f *testing.F) {
	id := "0123456789abcdef0123456789abcdef"
	f.Add(client.AppendSecureBody(nil, id, []byte("sealed record")))
	f.Add(client.AppendSecureBody(nil, id, nil))                            // empty record
	f.Add([]byte{})                                                         // empty body
	f.Add([]byte{32, 'a', 'b'})                                             // truncated id
	f.Add(append([]byte{200}, make([]byte, 300)...))                        // over-long id
	f.Add([]byte{0, 'r'})                                                   // empty id
	f.Add([]byte(`{"session":"ab","record":"c2VhbGVk"}`))                   // the old JSON body
	f.Add(client.AppendSecureBody(nil, strings.Repeat("s", 64), []byte{1})) // id at the cap
	f.Fuzz(func(t *testing.T, body []byte) {
		front := &recordingFront{}
		_, err := ServeCall(context.Background(), front, mux.KindSecure, body)
		if err != nil {
			var bad BadRequest
			if !errors.As(err, &bad) || !front.refused {
				t.Fatalf("refusal %v is not a counted BadRequest", err)
			}
			return
		}
		if front.session == "" || len(front.session) > 64 || len(front.record) == 0 {
			t.Fatalf("accepted session %q with a %d-byte record", front.session, len(front.record))
		}
		if !bytes.Equal(client.AppendSecureBody(nil, front.session, front.record), body) {
			t.Fatal("accepted body does not round-trip through client.AppendSecureBody")
		}
	})
}

// recordingFront keeps what ServeCall handed it.
type recordingFront struct {
	session string
	record  []byte
	refused bool
}

func (f *recordingFront) Handshake(context.Context, json.RawMessage, []byte) (*HandshakeResponse, error) {
	return nil, errors.New("recordingFront: no handshakes")
}

func (f *recordingFront) Secure(_ context.Context, session string, record []byte) ([]byte, error) {
	f.session, f.record = session, record
	return nil, nil
}

func (f *recordingFront) Refused() { f.refused = true }
