package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// What the host holds of a secure query once a crossing returns: the frame
// carries the reply sealed — none of its result URLs or titles, nor the
// plaintext's framing, in the clear — and the "request" argument comes back
// byte for byte as it went in, because the enclave opens the record into
// its own memory, never in place in the host's. {blocking, async} ×
// {engine fetch, cache hit}. The crossings are made by hand (the async
// runtime's resume workers are stopped and the completion ring drained
// here), so every frame that leaves an ecall for the query is in the
// test's hands.
func TestSecureFramesLeaveNoPlaintext(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%t", async), func(t *testing.T) {
			_, srv := newDelayEngine(t, 0)
			p, err := New(Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}},
				AsyncOcalls: async, CacheBytes: 1 << 20, CacheTTL: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Crash()
			channel, session, err := churnClient(p)
			if err != nil {
				t.Fatal(err)
			}
			if async {
				p.pipeline.stopDispatch()
			}
			for _, path := range []string{"engine fetch", "cache hit"} {
				hits := p.Stats().CacheHits
				frames, record := crossSecure(t, p, session, sealQuery(t, channel, "chicken recipe dinner"))
				if got := p.Stats().CacheHits - hits; (got == 1) != (path == "cache hit") {
					t.Fatalf("%s: %d cache hits", path, got)
				}
				pt, err := channel.Open(record)
				if err != nil {
					t.Fatalf("%s: reply does not open: %v", path, err)
				}
				var resp secureResponse
				if err := json.Unmarshal(pt, &resp); err != nil || resp.Err != "" || len(resp.Results) == 0 {
					t.Fatalf("%s: reply %q (%d results), %v", path, resp.Err, len(resp.Results), err)
				}
				secrets := [][]byte{[]byte(`{"results":`)}
				for _, r := range resp.Results {
					secrets = append(secrets, []byte(r.URL), []byte(r.Title))
				}
				for i, frame := range frames {
					for _, s := range secrets {
						if len(s) > 0 && bytes.Contains(frame, s) {
							t.Errorf("%s: frame %d of %d leaving the enclave holds %q in plaintext", path, i+1, len(frames), s)
						}
					}
				}
			}
		})
	}
}

// crossSecure serves one secure record through the "request" ecall — and,
// when it parks, "resume" ecalls over the completions it gives rise to —
// checking the request argument survives its crossing untouched. It returns
// every frame an ecall handed the host for the query and the sealed reply.
func crossSecure(t *testing.T, p *Proxy, session string, record []byte) (frames [][]byte, sealed []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := envelope{Type: typeSecure, Session: []byte(session), Record: record}
	if p.pipeline != nil {
		req.ID, _ = p.pipeline.register()
		defer p.pipeline.unregister(req.ID)
	}
	arg := req.encode()
	sent := bytes.Clone(arg)
	out, err := p.encl.ECall(ctx, "request", arg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arg, sent) {
		t.Error(`the "request" argument changed across its crossing: the enclave wrote into host memory`)
	}
	frames = append(frames, out)
	var reply envelopeReply
	if err := reply.decode(out); err != nil {
		t.Fatal(err)
	}
	for reply.Pending != 0 {
		var c []byte
		select {
		case done := <-p.encl.Completions():
			if done.Err != nil || len(done.Result) == 0 {
				continue // a pure close batch: nothing to resume
			}
			c = done.Result
		case <-ctx.Done():
			t.Fatal("the parked query never completed")
		}
		out, err := p.encl.ECall(ctx, "resume", encodeBatch([][]byte{c}))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, out)
		entries, err := decodeBatch(out)
		if err != nil {
			t.Fatal(err)
		}
		var rr resumeReply
		if err := rr.decode(entries[0]); err != nil {
			t.Fatal(err)
		}
		p.pipeline.routeResume(entries[0]) // the step handler's bookkeeping
		if rr.State == resumeDone && rr.PendingID == req.ID {
			if rr.Err != "" {
				t.Fatal(rr.Err)
			}
			reply = envelopeReply{}
			if err := reply.decode(rr.Reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	return frames, reply.Record
}
