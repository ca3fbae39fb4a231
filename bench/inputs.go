package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"xsearch/internal/dataset"
)

// zipfStreamLen is the length of the repeat workload's drawn stream; it
// wraps if a run outlasts it, which changes nothing about a Zipf stream.
const zipfStreamLen = 1 << 18

// buildStream generates a workload's distinct query pool and the stream
// callers draw from. Everything derives from seed; the program under test
// only ever sees the generated strings.
func buildStream(w *workload, seed uint64, sz sizes) (pool, stream []string, err error) {
	cfg := dataset.DefaultGeneratorConfig()
	cfg.Seed = seed
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	want := w.distinct
	if w.zipf {
		want = sz.pool
	}
	pool = make([]string, 0, want)
	seen := make(map[string]struct{}, want)
	for draws := 0; len(pool) < want; draws++ {
		if draws > 64*want {
			return nil, nil, fmt.Errorf("%s: generator yields fewer than %d distinct queries", w.name, want)
		}
		for _, q := range gen.GenerateQueries(1024) {
			if _, dup := seen[q]; !dup && len(pool) < want {
				seen[q] = struct{}{}
				pool = append(pool, q)
			}
		}
	}
	if !w.zipf {
		return pool, pool, nil
	}
	// One full pass over the pool (the warm-up), then Zipf draws.
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	stream = make([]string, zipfStreamLen)
	copy(stream, pool)
	for i := len(pool); i < len(stream); i++ {
		stream[i] = pool[zipf.Uint64()]
	}
	return pool, stream, nil
}

// fingerprint hashes the first 10 000 queries of a stream, so two runs
// can be shown to have had identical inputs.
func fingerprint(stream []string) string {
	h := sha256.New()
	for i := 0; i < len(stream) && i < 10000; i++ {
		h.Write([]byte(stream[i]))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
