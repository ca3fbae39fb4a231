// Private-search walks the full protocol in detail across a k sweep: it
// shows the attestation step failing against a wrong measurement, then for
// k in {0, 1, 3, 5} reports what the engine observes and how accuracy
// (precision/recall of the filtered results against the unprotected
// query's results) degrades as obfuscation grows — the Figure 4 trade-off,
// live.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"xsearch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "private-search:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	engine := xsearch.NewEngine(xsearch.WithEngineSeed(7))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = engine.Shutdown(context.Background()) }()

	// Reference: what the engine returns for the query with no privacy.
	const query = "chicken casserole recipe"
	reference, err := directSearch(ctx, engine.URL(), query)
	if err != nil {
		return err
	}
	fmt.Printf("reference results for %q (no protection): %d hits\n\n", query, len(reference))

	for _, k := range []int{0, 1, 3, 5} {
		proxy, err := xsearch.NewProxy(
			xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
			xsearch.WithFakeQueries(k),
			xsearch.WithProxySeed(uint64(k)+1),
		)
		if err != nil {
			return err
		}
		if err := proxy.Start("127.0.0.1:0"); err != nil {
			return err
		}

		// Demonstrate the attestation check once: a client pinning the
		// wrong measurement must refuse the proxy.
		if k == 0 {
			bad, err := xsearch.NewClient(proxy.URL(),
				xsearch.WithTrustedMeasurement(xsearch.Measurement{0xBA, 0xD0}),
				xsearch.WithAttestationKey(proxy.AttestationKey()))
			if err != nil {
				return err
			}
			if err := bad.Connect(ctx); err != nil {
				fmt.Printf("attestation check: wrong measurement rejected (%v)\n\n",
					rootCause(err))
			} else {
				return fmt.Errorf("wrong measurement was accepted")
			}
		}

		client, err := xsearch.NewClient(proxy.URL(),
			xsearch.WithTrustedMeasurement(proxy.Measurement()),
			xsearch.WithAttestationKey(proxy.AttestationKey()))
		if err != nil {
			return err
		}
		if err := client.Connect(ctx); err != nil {
			return err
		}
		// Warm the history with organic-looking traffic.
		for _, w := range []string{
			"used car dealer", "garden roses pruning", "mortgage rates",
			"playoff scores", "paris flights", "knitting pattern",
		} {
			if _, err := client.Search(ctx, w); err != nil {
				return err
			}
		}
		before := len(engine.QueryLog())
		results, err := client.Search(ctx, query)
		if err != nil {
			return err
		}
		log := engine.QueryLog()
		seen := log[len(log)-1].Query
		_ = before

		precision, recall := accuracy(reference, results)
		fmt.Printf("k=%d\n", k)
		fmt.Printf("  engine saw : %s\n", truncate(seen, 90))
		fmt.Printf("  results    : %d returned, precision=%.2f recall=%.2f vs unprotected\n",
			len(results), precision, recall)

		if err := proxy.Shutdown(context.Background()); err != nil {
			return err
		}
	}
	fmt.Println("\nhigher k hides the query better (Figure 3) at a modest accuracy cost (Figure 4).")
	return nil
}

// directSearch queries the engine with no privacy layer.
func directSearch(ctx context.Context, baseURL, q string) ([]xsearch.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/search?q="+strings.ReplaceAll(q, " ", "+")+"&count=20", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	// The engine's own schema, read the way any third-party client would.
	var hits []struct {
		URL     string `json:"url"`
		Title   string `json:"title"`
		Snippet string `json:"snippet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hits); err != nil {
		return nil, err
	}
	results := make([]xsearch.Result, len(hits))
	for i, h := range hits {
		results[i] = xsearch.Result{URL: h.URL, Title: h.Title, Snippet: h.Snippet}
	}
	return results, nil
}

func accuracy(reference, got []xsearch.Result) (precision, recall float64) {
	ref := map[string]struct{}{}
	for _, r := range reference {
		ref[r.URL] = struct{}{}
	}
	inter := 0
	for _, r := range got {
		if _, ok := ref[r.URL]; ok {
			inter++
		}
	}
	if len(got) > 0 {
		precision = float64(inter) / float64(len(got))
	}
	if len(ref) > 0 {
		recall = float64(inter) / float64(len(ref))
	}
	return precision, recall
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func rootCause(err error) string {
	msg := err.Error()
	if idx := strings.LastIndex(msg, ": "); idx >= 0 {
		return msg[idx+2:]
	}
	return msg
}
