// Quickstart: boot the full X-Search stack — engine, enclave proxy,
// attested client — and run one private search, printing what the user
// sees next to what the curious search engine saw.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"xsearch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// 1. A search engine (the Bing stand-in). It is honest but curious:
	//    it answers queries faithfully and logs everything it sees.
	engine := xsearch.NewEngine()
	if err := engine.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = engine.Shutdown(context.Background()) }()

	// 2. The X-Search proxy on an "untrusted cloud host": enclave-hosted
	//    obfuscation with k=3 real past queries.
	proxy, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(3),
	)
	if err != nil {
		return err
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = proxy.Shutdown(context.Background()) }()

	// 3. The client broker: verify the enclave's attestation (pinned
	//    measurement + attestation key), then key an encrypted channel
	//    that terminates inside the enclave.
	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(proxy.Measurement()),
		xsearch.WithAttestationKey(proxy.AttestationKey()),
	)
	if err != nil {
		return err
	}
	if err := client.Connect(ctx); err != nil {
		return err
	}
	fmt.Println("enclave attested, encrypted channel established")

	// Warm the proxy's past-query history (a deployed proxy gets this
	// from organic traffic of many users).
	for _, q := range []string{
		"mortgage refinance rates", "playoff scores standings",
		"chocolate dessert recipe", "flights paris hotel",
	} {
		if _, err := client.Search(ctx, q); err != nil {
			return err
		}
	}

	// The private query.
	const query = "divorce attorney consultation"
	results, err := client.Search(ctx, query)
	if err != nil {
		return err
	}
	fmt.Printf("\nuser searched   : %q\n", query)
	fmt.Printf("results returned: %d (filtered to the original query)\n", len(results))
	for i, r := range results {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %d. %s — %s\n", i+1, r.Title, r.URL)
	}

	log := engine.QueryLog()
	fmt.Printf("\nwhat the search engine saw (last entry of %d):\n", len(log))
	last := log[len(log)-1]
	fmt.Printf("  source: %s (the proxy, not the user)\n", last.Source)
	fmt.Printf("  query : %q\n", last.Query)
	fmt.Println("\nthe original query is hidden among real past queries; the engine")
	fmt.Println("cannot tell which sub-query is the user's, nor who the user is.")
	return nil
}
