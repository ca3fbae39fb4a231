package proxy

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

// Tests for the engine stage's step seam: the two binary step codecs, the
// resume routing by leading token, and what one pooled step costs.

// The step frames, byte for byte: a layout change must be deliberate (the
// token leads both so "resume" can route a completion by peeking 8 bytes).
func TestStepCodecGoldenFrames(t *testing.T) {
	arg := tlsStepArg{Token: 0x0102, ConnID: 3, Dial: true, Read: true, TimeoutMS: 150,
		Host: "e:1", Send: []byte("GET"), Close: []uint64{9}}
	wantArg := []byte{
		0x02, 0x01, 0, 0, 0, 0, 0, 0, // token
		3, 0, 0, 0, 0, 0, 0, 0, // conn id
		1, 1, // dial, read
		150, 0, 0, 0, 0, 0, 0, 0, // timeout ms
		3, 0, 0, 0, 'e', ':', '1', // host
		3, 0, 0, 0, 'G', 'E', 'T', // send
		1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, // close
	}
	if got := arg.encode(); !bytes.Equal(got, wantArg) {
		t.Errorf("tlsStepArg frame:\n got %v\nwant %v", got, wantArg)
	}
	reply := tlsStepReply{Token: 0x0102, EOF: true, Err: "x", Data: []byte{0xAA, 0xBB}}
	wantReply := []byte{
		0x02, 0x01, 0, 0, 0, 0, 0, 0, // token
		1, 0, // eof, cancelled
		1, 0, 0, 0, 'x', // err
		2, 0, 0, 0, 0xAA, 0xBB, // data, raw
	}
	if got := reply.encode(); !bytes.Equal(got, wantReply) {
		t.Errorf("tlsStepReply frame:\n got %v\nwant %v", got, wantReply)
	}
	var back tlsStepReply
	if err := back.decode(wantReply); err != nil || !reflect.DeepEqual(back, reply) {
		t.Errorf("decode(golden reply) = %+v, %v", back, err)
	}
	if &back.Data[0] != &wantReply[len(wantReply)-2] {
		t.Error("decoded Data does not alias the frame: the completion was copied before the adapter's one copy")
	}
}

// FuzzStepCodec holds the two step codecs to the seam discipline: hostile
// bytes never panic and never allocate on a prefix's say-so, an accepted
// frame re-encodes to itself, and decode(encode(v)) is v.
func FuzzStepCodec(f *testing.F) {
	for _, seed := range [][]byte{
		(&tlsStepArg{Token: 7, ConnID: 2, Dial: true, Host: "127.0.0.1:443", Send: []byte("hello"), Read: true, TimeoutMS: 9}).encode(),
		(&tlsStepArg{Close: []uint64{1, 2, 3}}).encode(), // pure close batch
		(&tlsStepReply{Token: 7, Data: bytes.Repeat([]byte{0x17}, 64)}).encode(),
		(&tlsStepReply{Token: 7, Err: "read: connection reset"}).encode(),
		(&tlsStepReply{Token: 7, Cancelled: true}).encode(),
		(&tlsStepReply{Token: 7, EOF: true}).encode(),
		{}, {1, 2, 3}, bytes.Repeat([]byte{0xFF}, 40),
		append(make([]byte, 8+2), 0xFF, 0xFF, 0xFF, 0x7F),         // reply: err length far past the input
		append(make([]byte, 8+8+2+8+4+4), 0xFF, 0xFF, 0xFF, 0x0F), // arg: close-count bomb
		[]byte(`{"token":7,"data":"c2VhbGVk"}`),                   // the old JSON completion
	} {
		f.Add(seed)
	}
	type codec interface {
		decode([]byte) error
		encode() []byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() codec{
			func() codec { return new(tlsStepArg) },
			func() codec { return new(tlsStepReply) },
		} {
			v := fresh()
			var err error
			allocs := testing.AllocsPerRun(1, func() { err = v.decode(data) })
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

// A hostile completion for a live flight — garbage after a valid token, or
// a well-formed reply carrying more than tlsStepReadMax — still ends the
// flight through the failure path (breaker charged, request finalized with
// an error, nothing left parked) and still echoes DoneToken so the runtime
// drops its per-token state. A completion too short to name a token is an
// orphan and touches nothing.
func TestHostileStepCompletionTerminatesFlight(t *testing.T) {
	for name, forge := range map[string]func(token uint64) []byte{
		"garbled": func(token uint64) []byte {
			return append(binary.LittleEndian.AppendUint64(nil, token), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		},
		"oversized": func(token uint64) []byte {
			return (&tlsStepReply{Token: token, Data: make([]byte, tlsStepReadMax+1)}).encode()
		},
	} {
		t.Run(name, func(t *testing.T) {
			addr, _ := startBlackholeUpstream(t)
			p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: addr}}, AsyncOcalls: true})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Crash()

			done := make(chan error, 1)
			go func() {
				_, err := p.ServeQuery(context.Background(), "query parked at a black hole")
				done <- err
			}()
			pt := p.trusted.pending
			var token uint64
			for deadline := time.Now().Add(2 * time.Second); token == 0; {
				pt.mu.Lock()
				for tok := range pt.byToken {
					token = tok
				}
				pt.mu.Unlock()
				if token == 0 && time.Now().After(deadline) {
					t.Fatal("request never parked")
				}
				time.Sleep(200 * time.Microsecond)
			}

			resume := func(blob []byte) resumeReply {
				t.Helper()
				frames, err := p.pipeline.batchECall("resume", [][]byte{blob})
				if err != nil {
					t.Fatal(err)
				}
				var rr resumeReply
				if err := rr.decode(frames[0]); err != nil {
					t.Fatal(err)
				}
				p.pipeline.routeResume(frames[0])
				return rr
			}
			if rr := resume([]byte{1, 2, 3}); rr.State != resumeOrphan || rr.DoneToken != 0 {
				t.Errorf("tokenless completion: %+v, want a bare orphan", rr)
			}
			rr := resume(forge(token))
			if rr.State != resumeDone || rr.DoneToken != token {
				t.Errorf("hostile completion: state %d done-token %d, want resumeDone echoing %d", rr.State, rr.DoneToken, token)
			}
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "tls step") {
					t.Errorf("request err = %v, want the step failure", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("request still parked after its flight's hostile completion")
			}
			pt.mu.Lock()
			left := len(pt.byID) + len(pt.byKey) + len(pt.byToken)
			pt.mu.Unlock()
			if left != 0 {
				t.Errorf("%d pending-table entries left behind", left)
			}
			if s := p.Stats(); s.Upstreams[0].Failures != 1 {
				t.Errorf("upstream failures = %d, want 1", s.Upstreams[0].Failures)
			}
			assertEPCInvariant(t, p)
		})
	}
}

// A leader's coalescing key is published at reservation, so a follower can
// attach before the leader's submission resolves. When that submission
// fails the follower must fail with it — in its own crossing, since no
// resume will ever wake it — and nothing may stay parked. A spent fetch
// deadline fails every submission before its first I/O; two identical
// queries in one batch make the second a follower of the first.
func TestFailedSubmitFailsAttachedFollowers(t *testing.T) {
	_, srv := newDelayEngine(t, 0)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}},
		AsyncOcalls: true, BatchMax: 2, FetchTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	first := (&envelope{Type: typePlain, ID: 1, Query: "identical pair"}).encode()
	second := (&envelope{Type: typePlain, ID: 2, Query: "identical pair"}).encode()
	frames, err := p.pipeline.batchECall("request-batch", [][]byte{first, second})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range frames {
		var item batchItemReply
		if err := item.decode(raw); err != nil {
			t.Fatal(err)
		}
		if item.Err == "" {
			t.Errorf("entry %d got a reply (parked?) though no fetch was ever submitted", i)
		}
	}
	if s := p.Stats(); s.CoalesceShared != 1 || s.CoalesceLed != 1 {
		t.Errorf("coalesce shared/led = %d/%d, want 1/1: the second entry should have followed the first", s.CoalesceShared, s.CoalesceLed)
	}
	pt := p.trusted.pending
	pt.mu.Lock()
	left := len(pt.byID) + len(pt.byKey) + len(pt.byToken)
	pt.mu.Unlock()
	if left != 0 {
		t.Errorf("%d pending-table entries left behind by a failed submission", left)
	}
	assertEPCInvariant(t, p)
}

// A plain-TCP upstream rides the same flights and the same trusted idle
// pool, so its reuse shows in Stats like a TLS upstream's.
func TestAsyncPlainFetchReusesPooledConn(t *testing.T) {
	_, srv := newDelayEngine(t, 0)
	p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}}, AsyncOcalls: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	for i := 0; i < 2; i++ {
		if _, err := p.ServeQuery(context.Background(), fmt.Sprintf("sequential query %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.PoolDials != 1 || s.PoolReuses != 1 || s.PoolIdle != 1 {
		t.Errorf("pool dials/reuses/idle = %d/%d/%d after two sequential queries, want 1/1/1", s.PoolDials, s.PoolReuses, s.PoolIdle)
	}
}

// One step on a pooled conn — encode the ask, the handler's write + read,
// decode the completion — costs two frames: the ask and a reply sized to
// the bytes that arrived. Before, the handler read into a fresh
// tlsStepReadMax buffer and both directions went through JSON and base64.
func TestAsyncTLSStepAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's own allocations are counted")
	}
	const reqLen, respLen = 128, 1024
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, resp := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	f := newFetcher(newConnTable(nil))
	defer f.closeAll()
	f.conns[1] = conn

	send := make([]byte, reqLen)
	got := 0
	step := func() {
		arg := (&tlsStepArg{Token: 7, ConnID: 1, Send: send, Read: true}).encode()
		out, err := f.ocallTLSStep(arg)
		if err != nil {
			t.Fatal(err)
		}
		var r tlsStepReply
		if err := r.decode(out); err != nil || r.Err != "" || len(r.Data) == 0 {
			t.Fatalf("step reply %+v, %v", r, err)
		}
		got += len(r.Data)
	}
	step() // warm the buffer pool
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got = 0
	allocs := testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs step once more to warm up.
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	data := float64(got) / (runs + 1)
	t.Logf("%.1f allocs, %.0f bytes per step carrying %.0f bytes back", allocs, perStep, data)
	if allocs > 3 {
		t.Errorf("%.1f allocations per pooled step, budget 3 (the ask frame and the reply frame)", allocs)
	}
	if budget := data + reqLen + 512; perStep > budget {
		t.Errorf("%.0f bytes allocated per step, budget %.0f (payloads + 512)", perStep, budget)
	}
}
