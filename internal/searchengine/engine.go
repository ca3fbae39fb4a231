package searchengine

import (
	"sync"
	"time"
)

// Engine is the complete search engine: index + the honest-but-curious
// behaviour the adversary model assumes (§3): it answers queries
// faithfully but logs every (source, query) pair, the log a
// re-identification attack derives per-source profiles from.
type Engine struct {
	index *Index

	mu       sync.Mutex
	queryLog []LoggedQuery
}

// LoggedQuery is one entry of the engine's query log.
type LoggedQuery struct {
	Source string // client identity as seen by the engine (IP or proxy)
	Query  string
	Time   time.Time
}

// Option configures an Engine.
type Option interface {
	apply(*engineOptions)
}

type engineOptions struct {
	corpus []Document
}

type corpusOption []Document

func (c corpusOption) apply(o *engineOptions) { o.corpus = c }

// WithCorpus supplies a pre-built corpus instead of the default one.
func WithCorpus(docs []Document) Option { return corpusOption(docs) }

// NewEngine builds an engine over the default (or supplied) corpus.
func NewEngine(opts ...Option) *Engine {
	var o engineOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.corpus == nil {
		o.corpus = GenerateCorpus(DefaultCorpusConfig())
	}
	return &Engine{index: BuildIndex(o.corpus)}
}

// Search runs a query on behalf of source and logs it (curious
// behaviour). perList bounds each sub-query's result list; OR queries are
// split and merged per the paper's methodology. The error is always nil.
func (e *Engine) Search(source, query string, perList int) ([]Result, error) {
	e.mu.Lock()
	e.queryLog = append(e.queryLog, LoggedQuery{Source: source, Query: query, Time: time.Now()})
	e.mu.Unlock()
	return e.index.SearchOR(query, perList), nil
}

// QueryLog returns a copy of the engine's query log.
func (e *Engine) QueryLog() []LoggedQuery {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]LoggedQuery, len(e.queryLog))
	copy(out, e.queryLog)
	return out
}
