// Command searchengine runs the simulated web search engine: a ranked
// inverted-index engine over a synthetic topical corpus with a Bing-like
// HTTP API (GET /search?q=...&count=20).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xsearch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "searchengine:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr = flag.String("addr", "127.0.0.1:8090", "listen address")
		docs = flag.Int("docs", 200, "documents per topic in the corpus")
		seed = flag.Uint64("seed", 1, "corpus generation seed")
	)
	flag.Parse()

	engine := xsearch.NewEngine(
		xsearch.WithCorpusSize(*docs),
		xsearch.WithEngineSeed(*seed),
	)
	if err := engine.Start(*addr); err != nil {
		return err
	}
	fmt.Printf("search engine listening on %s\n", engine.Addr())
	fmt.Printf("try: curl '%s/search?q=chicken+recipe&count=5'\n", engine.URL())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return engine.Shutdown(ctx)
}
