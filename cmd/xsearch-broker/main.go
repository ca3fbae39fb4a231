// Command xsearch-broker runs the client-side query broker: it attests the
// remote X-Search proxy enclave, keeps an encrypted channel to it, and
// serves a plain local HTTP endpoint (GET /search?q=...) to the user's web
// client — the paper's "local daemon process executing alongside the
// client's Web browser".
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/enclave"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xsearch-broker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:8092", "local listen address")
		proxyURL    = flag.String("proxy", "http://127.0.0.1:8091", "x-search proxy base URL")
		measurement = flag.String("measurement", "", "trusted enclave measurement (hex, from xsearch-proxy)")
		attKey      = flag.String("attkey", "", "attestation service key (hex, from xsearch-proxy)")
		count       = flag.Int("count", 20, "results per query")
		transport   = flag.String("transport", "http", "proxy transport: http (one request per call) or mux (one multiplexed TCP conn to -mux-addr)")
		muxAddr     = flag.String("mux-addr", "", "gateway raw-TCP mux address (host:port; required with -transport mux)")
	)
	flag.Parse()
	if *measurement == "" || *attKey == "" {
		return fmt.Errorf("-measurement and -attkey are required (printed by xsearch-proxy)")
	}
	var m enclave.Measurement
	raw, err := hex.DecodeString(*measurement)
	if err != nil || len(raw) != len(m) {
		return fmt.Errorf("bad -measurement: want %d hex bytes", len(m))
	}
	copy(m[:], raw)
	keyRaw, err := hex.DecodeString(*attKey)
	if err != nil || len(keyRaw) != ed25519.PublicKeySize {
		return fmt.Errorf("bad -attkey: want %d hex bytes", ed25519.PublicKeySize)
	}

	cfg := broker.Config{
		ProxyURL:   *proxyURL,
		ServiceKey: ed25519.PublicKey(keyRaw),
		Policy:     attestation.Policy{AcceptedMeasurements: []enclave.Measurement{m}},
		Count:      *count,
	}
	switch *transport {
	case "http":
		if *muxAddr != "" {
			return fmt.Errorf("-mux-addr has no effect with -transport http")
		}
	case "mux":
		if *muxAddr == "" {
			return fmt.Errorf("-transport mux requires -mux-addr (the gateway's -mux-listen address)")
		}
		cfg.Transport, cfg.MuxAddr = "mux", *muxAddr
	default:
		return fmt.Errorf("unknown -transport %q (want http or mux)", *transport)
	}
	b, err := broker.New(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = b.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = b.Connect(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("attestation/handshake failed: %w", err)
	}
	fmt.Printf("proxy enclave attested, channel established (%s transport)\n", *transport)

	front := broker.NewServer(b)
	if err := front.Start(*listen); err != nil {
		return err
	}
	fmt.Printf("broker listening on %s\n", front.Addr())
	fmt.Printf("try: curl 'http://%s/search?q=chicken+recipe'\n", front.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-front.ServeErr():
		// The accept loop died out from under the daemon — previously
		// this was silently discarded and the broker served nothing while
		// appearing healthy.
		fmt.Printf("fatal: local front failed: %v\n", err)
	}
	fmt.Println("shutting down")
	sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer scancel()
	return front.Shutdown(sctx)
}
