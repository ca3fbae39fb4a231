// Package simattack implements SimAttack (Petit et al., JISA'16), the
// state-of-the-art re-identification attack the paper evaluates against
// (§5.3.1): the adversary (the curious search engine) holds per-user
// profiles built from training queries; given a protected query it computes
// a similarity between the query and every profile — the exponential
// smoothing (alpha = 0.5) of the ascending-sorted cosine similarities
// between the query and each profile query — and re-identifies the
// (query, user) pair with the unique highest similarity. A protected query
// is a core.ObfuscatedQuery, the k+1 set core.Place builds for every
// mechanism evaluated (X-Search, PEAS, GooPIR), so the attack scores each
// the same way.
package simattack

import (
	"fmt"
	"math"
	"sort"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/textutil"
)

// DefaultAlpha is the smoothing factor the paper found best (§5.3.1).
const DefaultAlpha = 0.5

// profileQuery is one training query in vector form.
type profileQuery struct {
	vec  textutil.Vector
	norm float64
}

// Attack holds the adversary's preliminary information.
type Attack struct {
	alpha    float64
	users    []int
	profiles map[int][]profileQuery
	// index maps a term to the profile queries containing it, so only
	// candidates with non-zero cosine are scored. Queries absent from the
	// index contribute zero similarity, which the smoothing handles
	// analytically (zeros sorted first leave the running smooth at 0).
	index map[string][]candidate
}

// candidate references one profile query of one user.
type candidate struct {
	user int
	idx  int
}

// New builds the attack from the adversary's training log.
func New(train *dataset.Log, alpha float64) (*Attack, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("simattack: alpha %v out of (0,1]", alpha)
	}
	a := &Attack{
		alpha:    alpha,
		profiles: make(map[int][]profileQuery),
		index:    make(map[string][]candidate),
	}
	for _, rec := range train.Records {
		vec := textutil.NewVector(rec.Query)
		if len(vec) == 0 {
			continue
		}
		pq := profileQuery{vec: vec, norm: vec.Norm()}
		a.profiles[rec.UserID] = append(a.profiles[rec.UserID], pq)
	}
	a.users = make([]int, 0, len(a.profiles))
	for uid, queries := range a.profiles {
		a.users = append(a.users, uid)
		for qi, pq := range queries {
			for term := range pq.vec {
				a.index[term] = append(a.index[term], candidate{user: uid, idx: qi})
			}
		}
	}
	sort.Ints(a.users)
	return a, nil
}

// smooth folds ascending-sorted positive similarities with S_i = alpha*x_i
// + (1-alpha)*S_{i-1}, starting from S = 0 (zeros at the front of the
// ascending order leave the accumulator at zero, so they need not be
// materialized).
func (a *Attack) smooth(sims []float64) float64 {
	if len(sims) == 0 {
		return 0
	}
	sort.Float64s(sims)
	var s float64
	for _, x := range sims {
		s = a.alpha*x + (1-a.alpha)*s
	}
	return s
}

func cosine(qv textutil.Vector, qn float64, pq profileQuery) float64 {
	if pq.norm == 0 {
		return 0
	}
	return qv.Dot(pq.vec) / (qn * pq.norm)
}

// allSimilarities computes sim(q, P_u) for every profiled user via the
// term index: only users whose profiles share a term with q get a
// non-zero score.
func (a *Attack) allSimilarities(query string) map[int]float64 {
	qv := textutil.NewVector(query)
	qn := qv.Norm()
	out := make(map[int]float64)
	if qn == 0 {
		return out
	}
	// Gather per-user candidate sims.
	perUser := make(map[int]map[int]struct{})
	for term := range qv {
		for _, c := range a.index[term] {
			set, ok := perUser[c.user]
			if !ok {
				set = make(map[int]struct{})
				perUser[c.user] = set
			}
			set[c.idx] = struct{}{}
		}
	}
	for uid, idxs := range perUser {
		sims := make([]float64, 0, len(idxs))
		queries := a.profiles[uid]
		for qi := range idxs {
			if s := cosine(qv, qn, queries[qi]); s > 0 {
				sims = append(sims, s)
			}
		}
		if len(sims) > 0 {
			out[uid] = a.smooth(sims)
		}
	}
	return out
}

// GuessPair attacks an obfuscated query: for every sub-query it computes
// the similarity against every user profile; if exactly one
// (sub-query, user) pair attains the global maximum, it is returned
// (§5.3.1: "If only one couple of query and user have the highest
// similarities, SimAttack returns this couple. Otherwise, the attack is
// unsuccessful."). An unprotected query (Tor, or X-Search at k = 0) is a
// set of one.
func (a *Attack) GuessPair(subqueries []string) (queryIdx int, user int, ok bool) {
	type pair struct {
		qi  int
		uid int
	}
	var best pair
	var bestSim float64
	count := 0
	for qi, q := range subqueries {
		for uid, s := range a.allSimilarities(q) {
			switch {
			case s > bestSim:
				best, bestSim, count = pair{qi, uid}, s, 1
			case s == bestSim && bestSim > 0 && (best.qi != qi || best.uid != uid):
				count++
			}
		}
	}
	if count != 1 || bestSim == 0 {
		return 0, 0, false
	}
	return best.qi, best.uid, true
}

// EvaluateObfuscated measures the re-identification rate of an
// obfuscation mechanism: protect every test query with protect, then count
// the fraction where SimAttack recovers BOTH the original sub-query and
// the requesting user (the paper's re-identification rate, §5.4.1).
func (a *Attack) EvaluateObfuscated(test *dataset.Log, protect func(rec dataset.Record) core.ObfuscatedQuery) float64 {
	if len(test.Records) == 0 {
		return 0
	}
	hits := 0
	for _, rec := range test.Records {
		ob := protect(rec)
		qi, uid, ok := a.GuessPair(ob.Subqueries)
		if ok && qi == ob.OriginalIndex && uid == rec.UserID {
			hits++
		}
	}
	return float64(hits) / float64(len(test.Records))
}

// MaxQuerySimilarity returns the maximum cosine similarity between query
// and any profile query of any user — the metric behind Figure 1 (how
// close fake queries come to real past queries).
func (a *Attack) MaxQuerySimilarity(query string) float64 {
	qv := textutil.NewVector(query)
	qn := qv.Norm()
	if qn == 0 {
		return 0
	}
	var max float64
	seen := make(map[candidate]struct{})
	for term := range qv {
		for _, c := range a.index[term] {
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			if s := cosine(qv, qn, a.profiles[c.user][c.idx]); s > max {
				max = s
			}
		}
	}
	return math.Min(max, 1)
}
