// Persistent-proxy demonstrates sealed-state persistence: the proxy's
// past-query history survives a restart as an enclave-sealed blob the host
// cannot read, and a proxy on a different "machine" (different CPU fuse
// key) cannot unseal it at all.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xsearch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "persistent-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "xsearch-state")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	statePath := filepath.Join(dir, "history.sealed")
	machine := []byte("rack-42-cpu-7") // stands in for the CPU fuse key

	engine := xsearch.NewEngine()
	if err := engine.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = engine.Shutdown(context.Background()) }()

	// --- First proxy lifetime: accumulate history, then shut down. ---
	p1, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(2),
		xsearch.WithStatePersistence(statePath, machine),
	)
	if err != nil {
		return err
	}
	if err := p1.Start("127.0.0.1:0"); err != nil {
		return err
	}
	client, err := xsearch.NewClient(p1.URL(),
		xsearch.WithTrustedMeasurement(p1.Measurement()),
		xsearch.WithAttestationKey(p1.AttestationKey()))
	if err != nil {
		return err
	}
	if err := client.Connect(context.Background()); err != nil {
		return err
	}
	queries := []string{"mortgage rates", "garden roses", "playoff scores", "chicken recipe"}
	for _, q := range queries {
		if _, err := client.Search(context.Background(), q); err != nil {
			return err
		}
	}
	fmt.Printf("proxy #1: history holds %d queries\n", p1.Stats().HistoryLen)
	if err := p1.Shutdown(context.Background()); err != nil {
		return err
	}

	// The sealed blob is on disk but opaque to the host.
	blob, err := os.ReadFile(statePath)
	if err != nil {
		return err
	}
	leaked := false
	for _, q := range queries {
		if strings.Contains(string(blob), q) {
			leaked = true
		}
	}
	fmt.Printf("sealed state on disk: %d bytes, plaintext queries visible to host: %t\n",
		len(blob), leaked)

	// --- Restart on the same machine: history restored inside the enclave.
	p2, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(2),
		xsearch.WithStatePersistence(statePath, machine),
	)
	if err != nil {
		return err
	}
	if err := p2.Start("127.0.0.1:0"); err != nil {
		return err
	}
	fmt.Printf("proxy #2 (same machine): restored history of %d queries\n",
		p2.Stats().HistoryLen)
	_ = p2.Shutdown(context.Background())

	// --- A different machine cannot unseal the state. ---
	_, err = xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(2),
		xsearch.WithStatePersistence(statePath, []byte("attacker-machine")),
	)
	if err != nil {
		fmt.Printf("proxy #3 (other machine): refused to start — %v\n", rootCause(err))
		return nil
	}
	return fmt.Errorf("foreign machine unsealed the state — sealing broken")
}

func rootCause(err error) string {
	msg := err.Error()
	if idx := strings.LastIndex(msg, ": "); idx >= 0 {
		return msg[idx+2:]
	}
	return msg
}
