package proxy

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// The host runtime relaying engine bytes is untrusted (§3): these tests
// feed the enclave's response parser and pool the kinds of responses only
// a hostile host would produce.

// scriptedEngine serves one fixed byte blob per accepted connection after
// reading the request, like the fault_test servers but with pipelined or
// oversized payloads.
func scriptedEngine(t *testing.T, blob string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				_, _ = c.Read(buf)
				_, _ = c.Write([]byte(blob))
				// Keep the connection open: a smuggler wants it pooled.
				time.Sleep(2 * time.Second)
				_ = c.Close()
			}(conn)
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// A well-framed response with a forged second response pipelined behind
// it must not poison the next query: the connection holds buffered bytes,
// so it must not be pooled, and the forged results must never surface.
// The small-body variant leaves the smuggled bytes in the bufio parser;
// the large-body variant (> bufio's 4096-byte buffer) makes io.ReadFull
// take bufio's direct-read path, stranding the smuggled bytes one layer
// down in the step adapter's buffer — the boundary check must catch both.
func TestSmuggledPipelinedResponseNotPooled(t *testing.T) {
	forged := "HTTP/1.1 200 OK\r\nContent-Length: 44\r\n\r\n" +
		`[{"url":"http://evil.example","title":"ev"}]`
	smallBody := "[]"
	bigBody := `[{"url":"http://ok.example","snippet":"` + strings.Repeat("a", 12*1024) + `"}]`
	for _, tt := range []struct {
		name, body string
	}{
		{"small body (smuggle in bufio)", smallBody},
		{"large body (smuggle below bufio)", bigBody},
	} {
		t.Run(tt.name, func(t *testing.T) {
			legit := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(tt.body), tt.body)
			forEachStage(t, func(t *testing.T, async bool) {
				ln := scriptedEngine(t, legit+forged)
				p := newStageProxy(t, async, nil, EngineSpec{Host: ln.Addr().String()})
				for i, q := range []string{"first query", "second query"} {
					results, err := p.ServeQuery(context.Background(), q)
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
					for _, r := range results {
						if strings.Contains(r.URL, "evil") {
							t.Fatalf("query %d served the smuggled response: %+v", i, r)
						}
					}
				}
				s := p.Stats()
				if s.PoolIdle != 0 || s.PoolReuses != 0 {
					t.Errorf("desynced connection was pooled: %+v", s)
				}
			})
		})
	}
}

// endlessHeaders streams header lines forever: the parser must give up at
// its byte budget instead of accumulating without bound.
type endlessHeaders struct {
	sentStatus bool
}

func (e *endlessHeaders) Read(p []byte) (int, error) {
	line := "X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n"
	if !e.sentStatus {
		e.sentStatus = true
		line = "HTTP/1.1 200 OK\r\n"
	}
	return copy(p, line), nil
}

func TestHeaderBombCapped(t *testing.T) {
	_, _, _, err := readHTTPResponse(bufio.NewReader(&endlessHeaders{}))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("endless headers not capped: %v", err)
	}
}

// A single header line with no newline at all must hit the same budget.
func TestEndlessSingleLineCapped(t *testing.T) {
	r := io.MultiReader(
		strings.NewReader("HTTP/1.1 200 OK\r\n"),
		&repeatReader{payload: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"},
	)
	_, _, _, err := readHTTPResponse(bufio.NewReader(r))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("endless header line not capped: %v", err)
	}
}

type repeatReader struct{ payload string }

func (r *repeatReader) Read(p []byte) (int, error) { return copy(p, r.payload), nil }

// An honest oversized Content-Length is rejected before allocation.
func TestOversizedContentLengthRejected(t *testing.T) {
	resp := "HTTP/1.1 200 OK\r\nContent-Length: 2000000000\r\n\r\n"
	_, _, _, err := readHTTPResponse(bufio.NewReader(strings.NewReader(resp)))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("2GB content-length not rejected: %v", err)
	}
}

// Oversized chunked bodies are cut off at the cap, not accumulated.
func TestOversizedChunkedBodyRejected(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
	chunk := strings.Repeat("a", 1<<20)
	for i := 0; i < 9; i++ { // 9 MB > 8 MB cap
		sb.WriteString("100000\r\n") // 1 MB in hex
		sb.WriteString(chunk)
		sb.WriteString("\r\n")
	}
	sb.WriteString("0\r\n\r\n")
	_, _, _, err := readHTTPResponse(bufio.NewReader(strings.NewReader(sb.String())))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("9MB chunked body not rejected: %v", err)
	}
}
