package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"
)

// GeneratorConfig parameterizes the synthetic log. The defaults model the
// slice of the AOL log the paper evaluates on: a few hundred users over
// three months with Zipf-distributed activity.
type GeneratorConfig struct {
	// Users is the number of distinct users to simulate.
	Users int
	// MeanQueries is the mean number of queries of the most active user;
	// activity decays Zipf-like with user rank.
	MeanQueries int
	// TopicsPerUser is the number of interest topics per user.
	TopicsPerUser int
	// TopicConcentration in (0,1] skews each user toward their primary
	// topic; 1 means all topics equally likely.
	TopicConcentration float64
	// GeneralWordProb is the probability a query carries one general
	// qualifier word ("free", "best", ...).
	GeneralWordProb float64
	// ClickProb is the probability a query has an associated click.
	ClickProb float64
	// Start and End bound query timestamps; defaults are the AOL window
	// (March 1 - May 31, 2006).
	Start, End time.Time
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultGeneratorConfig returns the configuration used by the experiments.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Users:              200,
		MeanQueries:        400,
		TopicsPerUser:      3,
		TopicConcentration: 0.6,
		GeneralWordProb:    0.25,
		ClickProb:          0.5,
		Start:              time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC),
		End:                time.Date(2006, 5, 31, 23, 59, 59, 0, time.UTC),
		Seed:               1,
	}
}

// UserModel describes one simulated user's interests; exposed so attacks
// and tests can inspect ground truth.
type UserModel struct {
	ID           int
	TopicIndices []int
	TopicWeights []float64
	NumQueries   int
}

// Generator produces synthetic AOL-like logs.
type Generator struct {
	cfg   GeneratorConfig
	rng   *rand.Rand
	users []UserModel
}

// NewGenerator validates cfg and prepares the user population.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("dataset: Users must be positive, got %d", cfg.Users)
	}
	if cfg.MeanQueries <= 0 {
		return nil, fmt.Errorf("dataset: MeanQueries must be positive, got %d", cfg.MeanQueries)
	}
	if cfg.TopicsPerUser <= 0 || cfg.TopicsPerUser > len(Topics) {
		return nil, fmt.Errorf("dataset: TopicsPerUser %d out of range [1,%d]", cfg.TopicsPerUser, len(Topics))
	}
	if cfg.TopicConcentration <= 0 || cfg.TopicConcentration > 1 {
		return nil, fmt.Errorf("dataset: TopicConcentration %v out of (0,1]", cfg.TopicConcentration)
	}
	if cfg.Start.IsZero() || cfg.End.IsZero() || !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("dataset: invalid time window [%v, %v]", cfg.Start, cfg.End)
	}
	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}
	g.buildUsers()
	return g, nil
}

// buildUsers assigns each user a topic mixture and an activity level.
func (g *Generator) buildUsers() {
	g.users = make([]UserModel, g.cfg.Users)
	for i := range g.users {
		u := &g.users[i]
		u.ID = i + 1
		// Distinct topics per user, weighted toward a primary interest.
		perm := g.rng.Perm(len(Topics))
		u.TopicIndices = perm[:g.cfg.TopicsPerUser]
		u.TopicWeights = make([]float64, g.cfg.TopicsPerUser)
		w := 1.0
		var sum float64
		for j := range u.TopicWeights {
			u.TopicWeights[j] = w
			sum += w
			w *= g.cfg.TopicConcentration
		}
		for j := range u.TopicWeights {
			u.TopicWeights[j] /= sum
		}
		// Zipf-ish activity: rank r gets mean/(r^0.7), floor of 30.
		rank := float64(i + 1)
		n := float64(g.cfg.MeanQueries) / math.Pow(rank, 0.7)
		// Multiplicative jitter in [0.75, 1.25).
		n *= 0.75 + g.rng.Float64()*0.5
		if n < 30 {
			n = 30
		}
		u.NumQueries = int(n)
	}
}

// pickTopic samples a topic index for user u from their weight vector.
func (g *Generator) pickTopic(u *UserModel) int {
	x := g.rng.Float64()
	var cum float64
	for j, w := range u.TopicWeights {
		cum += w
		if x < cum {
			return u.TopicIndices[j]
		}
	}
	return u.TopicIndices[len(u.TopicIndices)-1]
}

// QueryForTopic builds one query string drawn from the given topic.
func (g *Generator) QueryForTopic(topicIdx int) string {
	topic := Topics[topicIdx]
	nWords := 1 + g.rng.IntN(3) // 1-3 topical words
	words := make([]string, 0, nWords+1)
	seen := map[int]struct{}{}
	for len(words) < nWords {
		wi := g.rng.IntN(len(topic.Words))
		if _, dup := seen[wi]; dup {
			continue
		}
		seen[wi] = struct{}{}
		words = append(words, topic.Words[wi])
	}
	if g.rng.Float64() < g.cfg.GeneralWordProb {
		general := GeneralWords[g.rng.IntN(len(GeneralWords))]
		// Qualifiers usually lead the query ("free guitar chords").
		words = append([]string{general}, words...)
	}
	return strings.Join(words, " ")
}

// clickURL fabricates a plausible clicked URL for a topical query.
func (g *Generator) clickURL(topicIdx int) string {
	topic := Topics[topicIdx]
	w := topic.Words[g.rng.IntN(len(topic.Words))]
	suffix := DomainSuffixes[g.rng.IntN(len(DomainSuffixes))]
	return fmt.Sprintf("http://www.%s%s.com", w, suffix)
}

// Generate produces the full log, sorted by timestamp.
func (g *Generator) Generate() *Log {
	log := &Log{}
	window := g.cfg.End.Sub(g.cfg.Start)
	for i := range g.users {
		u := &g.users[i]
		for q := 0; q < u.NumQueries; q++ {
			topicIdx := g.pickTopic(u)
			// Second granularity so records round-trip through the
			// AOL timestamp format.
			offset := time.Duration(g.rng.Int64N(int64(window))).Truncate(time.Second)
			rec := Record{
				UserID: u.ID,
				Query:  g.QueryForTopic(topicIdx),
				Time:   g.cfg.Start.Add(offset),
			}
			if g.rng.Float64() < g.cfg.ClickProb {
				rec.ItemRank = 1 + g.rng.IntN(10)
				rec.ClickURL = g.clickURL(topicIdx)
			}
			log.Records = append(log.Records, rec)
		}
	}
	sortRecordsByTime(log.Records)
	return log
}

// GenerateQueries produces n standalone queries with no user attached,
// drawn uniformly over topics. Used to fill the Figure 6 memory experiment
// with unique realistic queries.
func (g *Generator) GenerateQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = g.QueryForTopic(g.rng.IntN(len(Topics)))
	}
	return qs
}

func sortRecordsByTime(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
}
