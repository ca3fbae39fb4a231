package proxy

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xsearch/internal/enclave"
)

// A refused history charge must leave nothing behind. With paging disabled
// and the EPC full, the request fails with "history alloc" — and the query
// must NOT have been recorded in the window: a stored-but-uncharged query
// breaks heap == history + cache + index for the rest of the node's life.
func TestRefusedHistoryChargeRecordsNothing(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"blocking": func(*Config) {},
		"async":    func(c *Config) { c.AsyncOcalls = true },
		"batched":  func(c *Config) { c.AsyncOcalls = true; c.BatchMax = 4 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				K:        1,
				Seed:     1,
				EchoMode: true,
				// Room for about a thousand queries past the enclave's
				// static footprint.
				Platform:      enclave.NewPlatform(enclave.WithEPCLimit(128 << 10)),
				EnclaveConfig: enclave.Config{DisablePaging: true},
			}
			mutate(&cfg)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Crash()
			ctx := context.Background()
			refused := false
			for i := 0; i < 4000; i++ {
				before := p.Stats().HistoryLen
				_, err := p.ServeQuery(ctx, fmt.Sprintf("epc filler query number %04d", i))
				if err == nil {
					continue
				}
				if !strings.Contains(err.Error(), "history alloc") {
					t.Fatalf("query %d: %v, want a history alloc refusal", i, err)
				}
				if after := p.Stats().HistoryLen; after != before {
					t.Errorf("refused request changed the history: %d -> %d queries", before, after)
				}
				refused = true
				break
			}
			if !refused {
				t.Fatal("EPC never filled: the refusal path was not exercised")
			}
			assertEPCInvariant(t, p)

			// The same must hold for a burst refused together (the batched
			// config obfuscates it in one pass).
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _ = p.ServeQuery(ctx, fmt.Sprintf("burst after the epc filled %d", i))
				}(i)
			}
			wg.Wait()
			assertEPCInvariant(t, p)
		})
	}
}

// The same rule on the start-up path: "restore" charges the EPC for the
// window it is about to load BEFORE touching the history, so a sealed
// blob the enclave cannot afford is refused with nothing recorded — not
// loaded first and left uncharged.
func TestRefusedRestoreRecordsNothing(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "history.sealed")
	seed := []byte("restore-refusal")
	ctx := context.Background()

	big, err := New(Config{K: 1, Seed: 1, EchoMode: true, HistoryCapacity: 4000,
		StatePath: statePath, PlatformSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, err := big.ServeQuery(ctx, fmt.Sprintf("query persisted before the restart %04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}

	// The same machine (same fuse seed, so the blob unseals), but an EPC
	// with room for about a thousand of the four thousand queries.
	small := Config{K: 1, Seed: 1, EchoMode: true, HistoryCapacity: 4000,
		Platform:      enclave.NewPlatform(enclave.WithFuseSeed(seed), enclave.WithEPCLimit(128<<10)),
		EnclaveConfig: enclave.Config{DisablePaging: true}}
	p, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Crash()
	if _, err := p.encl.ECall(ctx, "restore", blob); err == nil || !strings.Contains(err.Error(), "history alloc") {
		t.Fatalf("restore err = %v, want a history alloc refusal", err)
	}
	if n := p.trusted.obfuscator.History().Len(); n != 0 {
		t.Errorf("refused restore left %d queries in the history", n)
	}
	assertEPCInvariant(t, p)

	// And through New: the refusal fails start-up.
	small.Platform = enclave.NewPlatform(enclave.WithFuseSeed(seed), enclave.WithEPCLimit(128<<10))
	small.StatePath = statePath
	if _, err := New(small); err == nil || !strings.Contains(err.Error(), "history alloc") {
		t.Errorf("New over an unaffordable sealed history: err = %v, want the refusal", err)
	}
}
