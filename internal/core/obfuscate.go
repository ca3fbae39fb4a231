package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"
)

// ObfuscatedQuery is the output of Algorithm 1: the original query hidden
// among k fake (past) queries in random order.
type ObfuscatedQuery struct {
	// Subqueries holds the k+1 sub-queries in transmission order.
	Subqueries []string
	// OriginalIndex is the position of the user's query in Subqueries.
	OriginalIndex int
}

// Query renders the OR-aggregated query string sent to the search engine.
func (o ObfuscatedQuery) Query() string {
	return strings.Join(o.Subqueries, " OR ")
}

// Original returns the user's query.
func (o ObfuscatedQuery) Original() string { return o.Subqueries[o.OriginalIndex] }

// Fakes returns the fake sub-queries in order.
func (o ObfuscatedQuery) Fakes() []string {
	fakes := make([]string, 0, len(o.Subqueries)-1)
	for i, q := range o.Subqueries {
		if i != o.OriginalIndex {
			fakes = append(fakes, q)
		}
	}
	return fakes
}

// Obfuscator implements Algorithm 1 over a shared History. It is safe for
// concurrent use; randomness is a seeded PCG behind a mutex so experiments
// are reproducible.
type Obfuscator struct {
	history *History
	k       int

	mu  sync.Mutex
	rng *mrand.Rand
}

// ObfuscatorOption configures an Obfuscator.
type ObfuscatorOption interface {
	apply(*obfuscatorOptions)
}

type obfuscatorOptions struct {
	seed *uint64
}

type seedOption uint64

func (s seedOption) apply(o *obfuscatorOptions) {
	v := uint64(s)
	o.seed = &v
}

// WithSeed fixes the obfuscator's randomness for reproducible experiments.
// Production proxies omit it and seed from the platform entropy source.
func WithSeed(seed uint64) ObfuscatorOption { return seedOption(seed) }

// NewObfuscator builds an obfuscator adding k fake queries per request.
// k = 0 degenerates to pure unlinkability (no obfuscation), matching the
// paper's Figure 3 baseline.
func NewObfuscator(history *History, k int, opts ...ObfuscatorOption) (*Obfuscator, error) {
	if history == nil {
		return nil, fmt.Errorf("core: nil history")
	}
	if k < 0 {
		return nil, fmt.Errorf("core: k must be non-negative, got %d", k)
	}
	var o obfuscatorOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	var s1, s2 uint64
	if o.seed != nil {
		s1, s2 = *o.seed, *o.seed^0x9e3779b97f4a7c15
	} else {
		var buf [16]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("core: seed: %w", err)
		}
		s1 = binary.LittleEndian.Uint64(buf[:8])
		s2 = binary.LittleEndian.Uint64(buf[8:])
	}
	return &Obfuscator{
		history: history,
		k:       k,
		rng:     mrand.New(mrand.NewPCG(s1, s2)),
	}, nil
}

// History returns the underlying past-query window.
func (ob *Obfuscator) History() *History { return ob.history }

// Obfuscate runs Algorithm 1 on query: draw k past queries, place the
// original among them (Place), then record the original into the history
// (line 9) — all three under one lock, so a seeded sequence of calls is a
// function of their order alone and a batch of queries obfuscated in turn
// is a sequence like any other. It returns the obfuscated query and the
// history byte delta (for EPC accounting).
//
// When the history holds fewer than one query (cold start) the query is
// sent with however many fakes are available — zero at first; the window
// fills as traffic flows, exactly as a freshly deployed proxy behaves.
func (ob *Obfuscator) Obfuscate(query string) (ObfuscatedQuery, int64) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	oq := Place(ob.rng.IntN, query, ob.history.Sample(ob.k, ob.rng.IntN))
	return oq, ob.history.Add(query)
}

// Place builds a k+1 set, the one way any is built: original at a position
// drawn as intn(len(fakes)+1) among fakes, whose order it keeps. With no
// fakes it draws nothing and returns original alone.
func Place(intn func(int) int, original string, fakes []string) ObfuscatedQuery {
	pos := 0
	if len(fakes) > 0 {
		pos = intn(len(fakes) + 1)
	}
	subs := make([]string, 0, len(fakes)+1)
	subs = append(subs, fakes[:pos]...)
	subs = append(subs, original)
	subs = append(subs, fakes[pos:]...)
	return ObfuscatedQuery{Subqueries: subs, OriginalIndex: pos}
}
