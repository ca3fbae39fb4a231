package proxy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

// A response whose body length RFC 9112 §6.3 leaves ambiguous is refused
// on either engine stage, and its connection is closed, never pooled: a
// reader that guessed would let the host frame the next response.
// A status code that is not three digits is refused the same way.
func TestAmbiguousFramingRefusedNotPooled(t *testing.T) {
	const body = `[{"url":"http://ok.example","title":"t"}]`
	cl := fmt.Sprintf("Content-Length: %d\r\n", len(body))
	for _, tt := range []struct{ name, status, headers, want string }{
		{"chunked beside Content-Length", "200", "Transfer-Encoding: chunked\r\n" + cl, "framing"},
		{"two Content-Length values", "200", cl + fmt.Sprintf("Content-Length: %d\r\n", len(body)+1), "framing"},
		{"negative Content-Length", "200", "Content-Length: -5\r\n", "framing"},
		{"non-numeric Content-Length", "200", "Content-Length: abc\r\n", "framing"},
		{"negative status", "-5", cl, "three digits"},
		{"four-digit status", "0200", cl, "three digits"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			blob := "HTTP/1.1 " + tt.status + " OK\r\n" + tt.headers + "\r\n" + body
			if strings.Contains(tt.headers, "chunked") {
				blob = fmt.Sprintf("HTTP/1.1 %s OK\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", tt.status, tt.headers, len(body), body)
			}
			forEachStage(t, func(t *testing.T, async bool) {
				ln := scriptedEngine(t, blob)
				p := newStageProxy(t, async, nil, EngineSpec{Host: ln.Addr().String()})
				results, err := p.ServeQuery(context.Background(), "framing query")
				if err == nil || !strings.Contains(err.Error(), tt.want) {
					t.Fatalf("%s served %v, %v", tt.name, results, err)
				}
				if s := p.Stats(); s.PoolIdle != 0 || s.PoolReuses != 0 {
					t.Errorf("ambiguously framed connection was pooled: %+v", s)
				}
			})
		})
	}
}

// A warm reader decodes a 17 KB engine body into the one string it returns
// and allocates nothing else: no per-line, per-chunk or second body copy.
func TestReadHTTPResponseAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's own allocations are counted")
	}
	body := `[` + strings.Repeat(`{"url":"http://example.org/a","title":"a title","snippet":"a snippet of text"},`, 220) + `{}]`
	head := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Fri, 16 Oct 2026 07:00:00 GMT\r\n"
	for _, c := range []struct {
		name string
		raw  string
		max  float64
	}{
		{"Content-Length", head + fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)) + body, 1},
		{"one chunk", head + fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body), 2},
	} {
		raw := []byte(c.raw)
		src := bytes.NewReader(raw)
		br := bufio.NewReader(src)
		got := testing.AllocsPerRun(50, func() {
			src.Reset(raw)
			br.Reset(src)
			b, status, keepAlive, err := readHTTPResponse(br)
			if err != nil || b != body || status != 200 || !keepAlive {
				t.Fatalf("%s: %d-byte body, status %d, keep-alive %t, %v", c.name, len(b), status, keepAlive, err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.1f allocations reading a %d-byte body, want <= %.0f", c.name, got, len(body), c.max)
		}
	}
}

// fixedReadConn is a socket whose every Read delivers payload (or as much
// of it as fits).
type fixedReadConn struct {
	net.Conn
	payload []byte
}

func (c *fixedReadConn) Read(p []byte) (int, error)      { return copy(p, c.payload), nil }
func (c *fixedReadConn) SetReadDeadline(time.Time) error { return nil }

// The host's recv handler reads into a pooled buffer and replies with one
// fresh slice sized to what arrived: the EOF flag and those bytes, never a
// read cap's worth. A caller asking past tlsStepReadMax gets the cap.
func TestRecvReplyAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's own allocations are counted")
	}
	for _, c := range []struct {
		name        string
		arrived     int
		ask         uint64
		wantPayload int
	}{
		{"a small read", 1234, tlsStepReadMax, 1234},
		{"a read past the cap", tlsStepReadMax + 8<<10, 1 << 20, tlsStepReadMax},
	} {
		payload := bytes.Repeat([]byte{'r'}, c.arrived)
		ct := newConnTable(nil)
		ct.conns[1] = &fixedReadConn{payload: payload}
		arg := make([]byte, 24)
		binary.LittleEndian.PutUint64(arg, 1)
		binary.LittleEndian.PutUint64(arg[8:], c.ask)
		binary.LittleEndian.PutUint64(arg[16:], 1000)
		var reply []byte
		got := testing.AllocsPerRun(100, func() {
			var err error
			if reply, err = ct.ocallRecv(arg); err != nil {
				t.Fatal(err)
			}
		})
		if got > 1 {
			t.Errorf("%s: %.1f allocations per recv, want 1", c.name, got)
		}
		if len(reply) != 1+c.wantPayload || reply[0] != 0 || !bytes.Equal(reply[1:], payload[:c.wantPayload]) {
			t.Errorf("%s: reply of %d bytes (flag %d), want 1+%d", c.name, len(reply), reply[0], c.wantPayload)
		}
	}
}
