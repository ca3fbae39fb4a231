package proxy

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"reflect"
	"strings"
	"testing"

	"xsearch/internal/core"
)

// FuzzParseResponse fuzzes the enclave's HTTP/1.1 streaming response
// parser — the one component that consumes wholly hostile bytes (every
// engine response crosses the untrusted runtime). The parser must never
// panic, and an accepted response must respect the enclave's allocation
// caps regardless of what the host streamed.
func FuzzParseResponse(f *testing.F) {
	// Keep-alive with Content-Length framing.
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello"))
	// Chunked framing with an extension and a trailer.
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n"))
	// HTTP/1.0 read-to-EOF body.
	f.Add([]byte("HTTP/1.0 200 OK\r\n\r\nunfraaamed body"))
	// Truncated mid-headers.
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Le"))
	// Truncated mid-chunk.
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nshort"))
	// Oversized declared length.
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n"))
	// Negative chunk size and hostile status line.
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n"))
	f.Add([]byte("garbage with no\nstructure at all"))
	// Connection: close with error status.
	f.Add([]byte("HTTP/1.1 503 Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"))
	// Header bomb start (the cap must cut it off).
	f.Add([]byte("HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Pad: aaaaaaaa\r\n", 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, status, keepAlive, err := readHTTPResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(body) > maxEngineResponse {
			t.Fatalf("accepted %d-byte body beyond the %d cap", len(body), maxEngineResponse)
		}
		if status < 0 {
			t.Fatalf("negative status %d accepted", status)
		}
		// A keep-alive verdict promises the stream sits at a response
		// boundary, which only delimited framings can guarantee.
		_ = keepAlive
	})
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
// the untrusted runtime frames it), envelopeReply (also "hedge"'s reply),
// batchItemReply, resumeReply (with its follower replies) and "abandon"'s
// tokenList. None may panic or size an allocation from a length the
// input does not back; what one accepts must re-encode to exactly the
// bytes it was decoded from (so trailing bytes cannot be accepted), and
// decoding that again must give the same value.
func FuzzSeamCodec(f *testing.F) {
	secure := envelope{Type: typeSecure, Session: "0123456789abcdef0123456789abcdef", Record: []byte("sealed")}
	plain := envelope{Type: typePlain, ID: 7, Query: "chicken recipe"}
	results := envelopeReply{Results: []core.Result{{URL: "u", Title: "t", Snippet: "s"}, {}}}
	parked := envelopeReply{Pending: 7, Upstream: "127.0.0.1:80", CanHedge: true}
	hs := envelopeReply{Offer: []byte(`{"role":2}`), Session: "ab", ReportData: make([]byte, 64)}
	followers := []followerReply{{ID: 4, Reply: results.encode()}, {ID: 5, Err: "proxy: unknown session"}}
	done := resumeReply{State: resumeDone, PendingID: 3, Reply: results.encode(), Followers: followers, CancelTokens: []uint64{9}, DoneToken: 2}
	failed := resumeReply{State: resumeDone, PendingID: 3, Err: "proxy: engine status 500"}
	item := batchItemReply{Reply: parked.encode()}
	itemErr := batchItemReply{Err: "proxy: empty query"}
	for _, seed := range [][]byte{
		secure.encode(), plain.encode(), results.encode(), parked.encode(), hs.encode(),
		done.encode(), failed.encode(), item.encode(), itemErr.encode(), tokenList{9, 11}.encode(),
		{}, {typePlain}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		append(plain.encode(), 0xAA),                                     // trailing byte
		{typePlain, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 'q'}, // length far past the input
		append(make([]byte, 8+1+5*4), 0xFF, 0xFF, 0xFF, 0xFF),            // reply: result-count bomb
		append(make([]byte, 1+8+8+4+4), 0xFF, 0xFF, 0xFF, 0x0F),          // resume: follower-count bomb
		{0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3, 4, 5, 6, 7, 8},                 // abandon: token-count bomb
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

// FuzzMuxSecureBody fuzzes the gateway's parse of a KindSecure mux stream
// body (len ‖ session id ‖ record): hostile bytes are refused as a
// BadRequest — never a panic — and an accepted body is exactly what
// AppendSecureBody builds from the parsed parts.
func FuzzMuxSecureBody(f *testing.F) {
	id := "0123456789abcdef0123456789abcdef"
	f.Add(AppendSecureBody(nil, id, []byte("sealed record")))
	f.Add(AppendSecureBody(nil, id, nil))                            // empty record
	f.Add([]byte{})                                                  // empty body
	f.Add([]byte{32, 'a', 'b'})                                      // truncated id
	f.Add(append([]byte{200}, make([]byte, 300)...))                 // over-long id
	f.Add([]byte{0, 'r'})                                            // empty id
	f.Add([]byte(`{"session":"ab","record":"c2VhbGVk"}`))            // the old JSON body
	f.Add(AppendSecureBody(nil, strings.Repeat("s", 64), []byte{1})) // id at the cap
	f.Fuzz(func(t *testing.T, body []byte) {
		session, record, err := ParseSecureBody(body)
		if err != nil {
			var bad BadRequest
			if !errors.As(err, &bad) {
				t.Fatalf("refusal %v is not a BadRequest", err)
			}
			return
		}
		if session == "" || len(session) > maxSessionIDBytes || len(record) == 0 {
			t.Fatalf("accepted session %q with a %d-byte record", session, len(record))
		}
		if !bytes.Equal(AppendSecureBody(nil, session, record), body) {
			t.Fatal("accepted body does not round-trip through AppendSecureBody")
		}
	})
}
