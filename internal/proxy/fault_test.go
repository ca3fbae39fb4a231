package proxy

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The adversary model (§3) allows the proxy host and the network to
// misbehave arbitrarily. These tests inject those faults and assert the
// system degrades to clean errors — never to wrong or unprotected answers.

// Engine unreachable: the enclave's sock_connect ocall fails; the client
// gets an error, not an empty 200.
func TestEngineUnreachable(t *testing.T) {
	// Reserve a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()

	p, err := New(Config{K: 1, Engines: []EngineSpec{{Host: deadAddr}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	if _, err := p.ServeQuery(context.Background(), "anything"); err == nil || !strings.Contains(err.Error(), deadAddr) {
		t.Errorf("dead engine: err = %v, want the failed dial", err)
	}
	// The failure travelled sealed: the host has no error to count.
	if n := p.Stats().Errors; n != 0 {
		t.Errorf("errors = %d: the host saw a sealed failure", n)
	}
}

// A malicious engine returning garbage (non-JSON) must yield an error,
// not fabricated results.
func TestEngineReturnsGarbage(t *testing.T) {
	garbage, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = garbage.Close() }()
	go func() {
		for {
			conn, err := garbage.Accept()
			if err != nil {
				return
			}
			_, _ = conn.Write([]byte("HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n<html>not json</html>"))
			_ = conn.Close()
		}
	}()

	p, err := New(Config{K: 1, Engines: []EngineSpec{{Host: garbage.Addr().String()}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	if _, err := p.ServeQuery(context.Background(), "anything"); err == nil {
		t.Error("garbage engine response produced OK")
	}
}

// A malicious engine returning an error status propagates as an error.
func TestEngineErrorStatus(t *testing.T) {
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	go func() {
		for {
			conn, err := srv.Accept()
			if err != nil {
				return
			}
			_, _ = conn.Write([]byte("HTTP/1.0 429 Too Many Requests\r\n\r\nrate limited"))
			_ = conn.Close()
		}
	}()
	p, err := New(Config{K: 1, Engines: []EngineSpec{{Host: srv.Addr().String()}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	}()
	if _, err := p.ServeQuery(context.Background(), "anything"); err == nil {
		t.Error("engine 429 produced OK")
	}
}

// A host that tampers with a sealed record in flight: the enclave must
// reject it (GCM integrity), and the tampering must never produce results.
func TestTamperedSecureRecordRejected(t *testing.T) {
	st := newTestStack(t, nil)
	sess := openSecureSession(t, st.proxy)
	pt := []byte(`{"query":"chicken recipe","count":10}`)
	record, err := sess.channel.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	record[len(record)-1] ^= 0xFF
	if status, _ := postSecure(t, st.proxy.URL(), sess.session, record); status == http.StatusOK {
		t.Error("tampered record accepted")
	}
}

// Slow-loris style: a request context that expires while waiting for a TCS
// slot returns promptly with an error instead of hanging.
func TestRequestContextTimeout(t *testing.T) {
	st := newTestStack(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the context expire
	if _, err := st.proxy.ServeQuery(ctx, "q"); err == nil {
		t.Error("expired context produced results")
	}
}
