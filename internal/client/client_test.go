package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/client"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/mux"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
)

func verifier(p *proxy.Proxy) attestation.Verifier {
	return attestation.Verifier{ServiceKey: p.AttestationService().PublicKey(),
		Policy: attestation.Policy{AcceptedMeasurements: []enclave.Measurement{p.Measurement()}}}
}

// lossyCaller carries calls to a front in this process but reports the
// carrier lost on the next lose secure calls: after the front served them
// (the reply was lost) or before it saw them (the request was).
type lossyCaller struct {
	proxy.InProcess
	lose   int
	served bool
	secure int // secure calls made
}

func (c *lossyCaller) Call(ctx context.Context, kind byte, body, dst []byte) ([]byte, error) {
	if kind != mux.KindSecure {
		return c.InProcess.Call(ctx, kind, body, dst)
	}
	c.secure++
	if c.lose == 0 {
		return c.InProcess.Call(ctx, kind, body, dst)
	}
	c.lose--
	if c.served {
		_, _ = c.InProcess.Call(ctx, kind, body, dst)
	}
	return nil, mux.ErrConnLost
}

// A lost carrier is re-sealed and retried once, with no re-attestation,
// whether or not the front served the lost call; a second loss in a row is
// the caller's error.
func TestLostCarrierIsResealedOnce(t *testing.T) {
	for _, tc := range []struct {
		lose, secure int
		served, ok   bool
	}{
		{lose: 1, secure: 2, ok: true},
		{lose: 1, secure: 2, served: true, ok: true},
		{lose: 2, secure: 2},
	} {
		t.Run(fmt.Sprintf("lose %d served %t", tc.lose, tc.served), func(t *testing.T) {
			p, err := proxy.New(proxy.Config{K: 1, EchoMode: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Crash()
			caller := &lossyCaller{InProcess: proxy.InProcess{Front: p}}
			c := client.New(caller, verifier(p), 0)
			ctx := context.Background()
			if err := c.Connect(ctx); err != nil {
				t.Fatal(err)
			}
			caller.lose, caller.served = tc.lose, tc.served
			_, err = c.Search(ctx, "chicken recipe dinner")
			if tc.ok && err != nil {
				t.Fatalf("Search: %v", err)
			}
			if !tc.ok && !errors.Is(err, mux.ErrConnLost) {
				t.Fatalf("Search = %v, want mux.ErrConnLost", err)
			}
			if caller.secure != tc.secure {
				t.Errorf("%d secure calls, want %d", caller.secure, tc.secure)
			}
			if n := p.Stats().Handshakes; n != 1 {
				t.Errorf("%d handshakes, want 1 (no re-attestation)", n)
			}
		})
	}
}

// A reply is opened and parsed in a pooled buffer that the next search reads
// its reply into; the results handed out must not live in it. Both the
// buffer and the bytes past the second reply are scribbled over.
func TestResultsOutliveTheirReadBuffer(t *testing.T) {
	engineSrv := searchengine.NewServer(searchengine.NewEngine(searchengine.WithCorpus(
		searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 20, Seed: 1}))))
	if err := engineSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{K: 2, Seed: 1, Engines: []proxy.EngineSpec{{Host: engineSrv.Addr()}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Crash()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = engineSrv.Shutdown(ctx)
	})
	routes := http.NewServeMux()
	proxy.HandleFront(routes, p)
	srv := httptest.NewServer(routes)
	defer srv.Close()
	b, err := broker.New(broker.Config{ProxyURL: srv.URL, ServiceKey: p.AttestationService().PublicKey(),
		Policy: verifier(p).Policy})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]interface {
		Connect(context.Context) error
		Search(context.Context, string) ([]core.Result, error)
	}{"http": b, "in-process": client.New(proxy.InProcess{Front: p}, verifier(p), 0)} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := c.Connect(ctx); err != nil {
				t.Fatal(err)
			}
			first, err := c.Search(ctx, "chicken recipe dinner")
			if err != nil || len(first) == 0 {
				t.Fatalf("first search: %d results, %v", len(first), err)
			}
			want := string(core.AppendResultsJSON(nil, first))
			scribble := func() {
				buf := client.ReplyBufs.Get().(*[]byte)
				full := (*buf)[:cap(*buf)]
				for i := range full {
					full[i] = 0xff
				}
				client.ReplyBufs.Put(buf)
			}
			scribble()
			if second, err := c.Search(ctx, "mortgage refinance rates"); err != nil || len(second) == 0 {
				t.Fatalf("second search: %d results, %v", len(second), err)
			}
			scribble()
			if got := string(core.AppendResultsJSON(nil, first)); got != want {
				t.Errorf("the first search's results changed under the second:\n got %s\nwant %s", got, want)
			}
		})
	}
}
