// Load-test drives an echo-mode X-Search proxy through one attested client
// with an open-loop constant arrival rate (wrk2 semantics) and prints the
// latency distribution per offered rate — a miniature of the Figure 5
// capacity experiment against a live proxy on this machine.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"xsearch"
	"xsearch/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "load-test:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		rates    = flag.String("rates", "1000,5000,10000,20000", "comma-separated offered rates (req/s)")
		duration = flag.Duration("duration", 2*time.Second, "time per rate point")
		workers  = flag.Int("workers", 128, "concurrent connections")
	)
	flag.Parse()

	proxy, err := xsearch.NewProxy(xsearch.WithEchoMode(), xsearch.WithFakeQueries(3))
	if err != nil {
		return err
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = proxy.Shutdown(context.Background()) }()
	fmt.Printf("echo-mode proxy on %s; open-loop load, %v per point, %d workers\n\n",
		proxy.Addr(), *duration, *workers)

	// One attested client, as a broker host would run: every request is
	// sealed for the enclave and crosses the node as POST /secure.
	client, err := xsearch.NewClient(proxy.URL(),
		xsearch.WithTrustedMeasurement(proxy.Measurement()),
		xsearch.WithAttestationKey(proxy.AttestationKey()),
		xsearch.WithHTTPClient(&http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: *workers * 2},
			Timeout:   30 * time.Second,
		}))
	if err != nil {
		return err
	}
	if err := client.Connect(context.Background()); err != nil {
		return err
	}
	target := func(ctx context.Context) error {
		_, err := client.Search(ctx, "private web search")
		return err
	}

	fmt.Printf("%-10s %-10s %-10s %-10s %-10s %-8s\n",
		"offered", "achieved", "p50", "p99", "max", "errors")
	for _, rate := range parseRates(*rates) {
		res, err := workload.Run(context.Background(), workload.Config{
			Rate:     rate,
			Duration: *duration,
			Workers:  *workers,
		}, target)
		if err != nil {
			return err
		}
		fmt.Printf("%-10.0f %-10.0f %-10v %-10v %-10v %-8d\n",
			res.Offered, res.Achieved,
			res.Latency.P50.Round(10*time.Microsecond),
			res.Latency.P99.Round(10*time.Microsecond),
			res.Latency.Max.Round(10*time.Microsecond),
			res.Errors)
	}
	st := proxy.Stats()
	fmt.Printf("\nproxy served %d requests; enclave: %d ecalls, history %d queries\n",
		st.Requests, st.Enclave.ECalls, st.HistoryLen)
	return nil
}

func parseRates(s string) []float64 {
	var out []float64
	var cur float64
	has := false
	flush := func() {
		if has && cur > 0 {
			out = append(out, cur)
		}
		cur, has = 0, false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			cur = cur*10 + float64(r-'0')
			has = true
		case r == ',':
			flush()
		}
	}
	flush()
	if len(out) == 0 {
		out = []float64{1000}
	}
	return out
}
