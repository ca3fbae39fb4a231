package xsearch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"xsearch"
)

// Example boots the stack (an engine, the enclave proxy with k = 3 and an
// attested client), runs one private search and prints what the user got
// next to what the curious engine saw: the query among three real past
// queries, as one OR query from the proxy.
func Example() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	engine := xsearch.NewEngine(xsearch.WithEngineSeed(1))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = engine.Shutdown(context.Background()) }()

	proxy, err := xsearch.NewProxy(
		xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
		xsearch.WithFakeQueries(3),
		xsearch.WithProxySeed(1),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = proxy.Shutdown(context.Background()) }()

	// The client pins the enclave's measurement and attestation key, then
	// keys a channel that ends inside the enclave.
	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(proxy.Measurement()),
		xsearch.WithAttestationKey(proxy.AttestationKey()))
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := client.Connect(ctx); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("enclave attested, channel established")

	// Past queries fill the proxy's history, the pool fakes are drawn from
	// (a deployed proxy gets them from other users' traffic).
	for _, q := range []string{
		"mortgage refinance rates", "playoff scores standings",
		"chocolate dessert recipe", "flights paris hotel",
	} {
		if _, err := client.Search(ctx, q); err != nil {
			fmt.Println(err)
			return
		}
	}

	const query = "divorce attorney consultation"
	results, err := client.Search(ctx, query)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("user searched: %q\n", query)
	for _, r := range results[:min(3, len(results))] {
		fmt.Printf("  %s — %s\n", r.Title, r.URL)
	}
	// The engine sees one OR query from the proxy. A sub-query that appears
	// twice can only be a fake, because fakes are drawn with replacement
	// (ROADMAP item 19): the line below changes when they are distinct.
	log := engine.QueryLog()
	fmt.Printf("engine saw: %q\n", log[len(log)-1].Query)
	// Output:
	// enclave attested, channel established
	// user searched: "divorce attorney consultation"
	//   attorney deposition estate divorce — http://www.statutecentral.com/law/1931
	//   attorney probate — http://www.misdemeanorsource.com/law/1945
	//   misdemeanor divorce — http://www.appealhub.com/law/1959
	// engine saw: "mortgage refinance rates OR mortgage refinance rates OR playoff scores standings OR divorce attorney consultation"
}

// ExampleWithFakeQueries sweeps k: for k in {0, 1, 3, 5} a fresh proxy
// serves one query, and the example prints what the engine saw and how
// close the filtered results come to the unprotected ones (Fig. 4's
// accuracy against Fig. 3's privacy). Before the sweep, a client that pins
// the wrong measurement is refused.
func ExampleWithFakeQueries() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	engine := xsearch.NewEngine(xsearch.WithEngineSeed(7))
	if err := engine.Start("127.0.0.1:0"); err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = engine.Shutdown(context.Background()) }()

	// The unprotected reference: the engine's own /search, asked directly.
	const query = "chicken casserole recipe"
	resp, err := http.Get(engine.URL() + "/search?count=20&q=" + url.QueryEscape(query))
	if err != nil {
		fmt.Println(err)
		return
	}
	var reference []xsearch.Result
	err = json.NewDecoder(resp.Body).Decode(&reference)
	_ = resp.Body.Close()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("unprotected %q: %d results\n", query, len(reference))
	unprotected := map[string]bool{}
	for _, r := range reference {
		unprotected[r.URL] = true
	}

	for _, k := range []int{0, 1, 3, 5} {
		proxy, err := xsearch.NewProxy(
			xsearch.WithEngines(xsearch.EngineSpec{Host: engine.Addr()}),
			xsearch.WithFakeQueries(k),
			xsearch.WithProxySeed(uint64(k)+1),
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := proxy.Start("127.0.0.1:0"); err != nil {
			fmt.Println(err)
			return
		}
		defer func() { _ = proxy.Shutdown(context.Background()) }()
		if k == 0 {
			bad, err := xsearch.NewClient(proxy.URL(),
				xsearch.WithTrustedMeasurement(xsearch.Measurement{0xBA, 0xD0}),
				xsearch.WithAttestationKey(proxy.AttestationKey()))
			if err == nil && bad.Connect(ctx) != nil {
				fmt.Println("wrong measurement: refused")
			}
		}
		client, err := xsearch.NewClient(proxy.URL(),
			xsearch.WithTrustedMeasurement(proxy.Measurement()),
			xsearch.WithAttestationKey(proxy.AttestationKey()))
		if err == nil {
			err = client.Connect(ctx)
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, q := range []string{
			"used car dealer", "garden roses pruning", "mortgage rates",
			"playoff scores", "paris flights", "knitting pattern",
		} {
			if _, err := client.Search(ctx, q); err != nil {
				fmt.Println(err)
				return
			}
		}
		results, err := client.Search(ctx, query)
		if err != nil {
			fmt.Println(err)
			return
		}
		shared := 0
		for _, r := range results {
			if unprotected[r.URL] {
				shared++
			}
		}
		log := engine.QueryLog()
		fmt.Printf("k=%d engine saw: %q\n", k, log[len(log)-1].Query)
		fmt.Printf("    %d results, %d of them unprotected ones\n", len(results), shared)
	}
	// Output:
	// unprotected "chicken casserole recipe": 20 results
	// wrong measurement: refused
	// k=0 engine saw: "chicken casserole recipe"
	//     20 results, 20 of them unprotected ones
	// k=1 engine saw: "paris flights OR chicken casserole recipe"
	//     20 results, 20 of them unprotected ones
	// k=3 engine saw: "chicken casserole recipe OR garden roses pruning OR knitting pattern OR playoff scores"
	//     20 results, 20 of them unprotected ones
	// k=5 engine saw: "used car dealer OR used car dealer OR paris flights OR chicken casserole recipe OR used car dealer OR garden roses pruning"
	//     20 results, 20 of them unprotected ones
}
