package proxy

import (
	"context"
	"fmt"
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
