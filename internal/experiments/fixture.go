// Package experiments contains one driver per figure of the paper's
// evaluation (Figures 1, 3, 4, 5, 6, 7) and the paper's own ablations —
// and nothing else: whether a change made the system faster is bench/'s
// question. Each driver is parameterized by size so scaled-down versions
// run in go test, and every driver is deterministic under its seed.
// cmd/xsearch-bench runs the full-size versions and renders their tables.
package experiments

import (
	"fmt"
	mrand "math/rand/v2"

	"xsearch/internal/dataset"
	"xsearch/internal/peas"
	"xsearch/internal/simattack"
)

// Fixture is the shared evaluation setup mirroring §5.1: a query log, its
// 2/3-1/3 train/test split restricted to the most active users, the
// adversary's SimAttack instance, and PEAS's co-occurrence matrix.
type Fixture struct {
	Log      *dataset.Log
	Train    *dataset.Log
	Test     *dataset.Log
	Attack   *simattack.Attack
	CoMatrix *peas.CoMatrix
	// TrainPool is the flat list of training queries, standing in for
	// the X-Search proxy's history of real past queries.
	TrainPool []string
	rng       *mrand.Rand
}

// FixtureConfig sizes the fixture.
type FixtureConfig struct {
	// Users and MeanQueries size the synthetic log.
	Users       int
	MeanQueries int
	// ActiveUsers restricts evaluation to the top-N active users
	// (paper: 100).
	ActiveUsers int
	// Seed fixes everything.
	Seed uint64
}

// DefaultFixtureConfig mirrors the paper's scale as closely as the
// synthetic data needs: 200 generated users, evaluation on the top 100.
func DefaultFixtureConfig() FixtureConfig {
	return FixtureConfig{Users: 200, MeanQueries: 400, ActiveUsers: 100, Seed: 1}
}

// NewFixture generates the log and builds the attack state.
func NewFixture(cfg FixtureConfig) (*Fixture, error) {
	if cfg.Users <= 0 || cfg.MeanQueries <= 0 {
		return nil, fmt.Errorf("experiments: invalid fixture size %+v", cfg)
	}
	if cfg.ActiveUsers <= 0 || cfg.ActiveUsers > cfg.Users {
		cfg.ActiveUsers = cfg.Users
	}
	genCfg := dataset.DefaultGeneratorConfig()
	genCfg.Users = cfg.Users
	genCfg.MeanQueries = cfg.MeanQueries
	genCfg.Seed = cfg.Seed
	gen, err := dataset.NewGenerator(genCfg)
	if err != nil {
		return nil, err
	}
	full := gen.Generate()
	active := full.FilterUsers(full.TopActiveUsers(cfg.ActiveUsers))
	train, test, err := active.Split(2.0 / 3.0)
	if err != nil {
		return nil, err
	}
	attack, err := simattack.New(train, simattack.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	co := peas.BuildCoMatrix(train.Queries())
	if co.NumTerms() == 0 {
		return nil, fmt.Errorf("experiments: no terms in the training log")
	}
	return &Fixture{
		Log:       active,
		Train:     train,
		Test:      test,
		Attack:    attack,
		CoMatrix:  co,
		TrainPool: train.Queries(),
		rng:       mrand.New(mrand.NewPCG(cfg.Seed, cfg.Seed^0x5851f42d4c957f2d)),
	}, nil
}

// SampleTest returns up to n test records drawn without replacement,
// deterministically.
func (f *Fixture) SampleTest(n int) []dataset.Record {
	recs := f.Test.Records
	if n >= len(recs) {
		out := make([]dataset.Record, len(recs))
		copy(out, recs)
		return out
	}
	perm := f.rng.Perm(len(recs))
	out := make([]dataset.Record, n)
	for i := 0; i < n; i++ {
		out[i] = recs[perm[i]]
	}
	return out
}

// RandomTrainQueries draws k queries from the training pool (with
// replacement), the X-Search history-sampling stand-in.
func (f *Fixture) RandomTrainQueries(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = f.TrainPool[f.rng.IntN(len(f.TrainPool))]
	}
	return out
}

// Rand exposes the fixture's deterministic source for drivers.
func (f *Fixture) Rand() *mrand.Rand { return f.rng }
