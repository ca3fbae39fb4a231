// Package dataset synthesizes and manipulates AOL-style web search query
// logs. The real AOL log (21M queries, 650k users, March-May 2006) is not
// redistributable, so experiments run on a seeded synthetic log with the
// same schema (AnonID, Query, QueryTime, ItemRank, ClickURL) and the
// statistical properties the paper's evaluation depends on: Zipfian user
// activity and topically coherent per-user query histories.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Record is one line of an AOL-format query log.
type Record struct {
	UserID   int
	Query    string
	Time     time.Time
	ItemRank int    // 0 when the user did not click
	ClickURL string // empty when the user did not click
}

// Log is an ordered collection of query records.
type Log struct {
	Records []Record
}

// aolTimeLayout is the timestamp format of the AOL log.
const aolTimeLayout = "2006-01-02 15:04:05"

// WriteTSV writes the log in AOL format: a header line followed by
// tab-separated AnonID, Query, QueryTime, ItemRank, ClickURL.
func (l *Log) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "AnonID\tQuery\tQueryTime\tItemRank\tClickURL"); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for _, r := range l.Records {
		rank, click := "", ""
		if r.ItemRank > 0 {
			rank = strconv.Itoa(r.ItemRank)
			click = r.ClickURL
		}
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%s\n",
			r.UserID, r.Query, r.Time.Format(aolTimeLayout), rank, click); err != nil {
			return fmt.Errorf("dataset: write record: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: flush: %w", err)
	}
	return nil
}

// UserIDs returns the distinct user IDs in ascending order.
func (l *Log) UserIDs() []int {
	seen := map[int]struct{}{}
	for _, r := range l.Records {
		seen[r.UserID] = struct{}{}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TopActiveUsers returns the n user IDs with the most queries, the paper's
// §5.1 selection ("the 100 most active users, as they are the most exposed").
// Ties break by ascending ID for determinism.
func (l *Log) TopActiveUsers(n int) []int {
	counts := map[int]int{}
	for _, r := range l.Records {
		counts[r.UserID]++
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// FilterUsers returns a new log containing only records of the given users.
func (l *Log) FilterUsers(ids []int) *Log {
	keep := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		keep[id] = struct{}{}
	}
	out := &Log{}
	for _, r := range l.Records {
		if _, ok := keep[r.UserID]; ok {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Split divides the log per user into a training part (the first trainFrac
// of each user's chronologically ordered queries) and a testing part (the
// remainder), reproducing the paper's 2/3-1/3 split. trainFrac must be in
// (0, 1).
func (l *Log) Split(trainFrac float64) (train, test *Log, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac %v out of (0,1)", trainFrac)
	}
	train, test = &Log{}, &Log{}
	for _, uid := range l.UserIDs() {
		var recs []Record
		for _, r := range l.Records {
			if r.UserID == uid {
				recs = append(recs, r)
			}
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		cut := int(float64(len(recs)) * trainFrac)
		train.Records = append(train.Records, recs[:cut]...)
		test.Records = append(test.Records, recs[cut:]...)
	}
	return train, test, nil
}

// Queries returns the query strings of all records, in order.
func (l *Log) Queries() []string {
	qs := make([]string, len(l.Records))
	for i, r := range l.Records {
		qs[i] = r.Query
	}
	return qs
}

// UniqueQueries returns the distinct query strings, in first-seen order.
func (l *Log) UniqueQueries() []string {
	seen := map[string]struct{}{}
	var qs []string
	for _, r := range l.Records {
		if _, dup := seen[r.Query]; dup {
			continue
		}
		seen[r.Query] = struct{}{}
		qs = append(qs, r.Query)
	}
	return qs
}

// Stats summarizes the log for reporting.
type Stats struct {
	Records       int
	Users         int
	UniqueQueries int
	Start         time.Time
	End           time.Time
}

// Stats computes summary statistics.
func (l *Log) Stats() Stats {
	s := Stats{Records: len(l.Records)}
	s.Users = len(l.UserIDs())
	s.UniqueQueries = len(l.UniqueQueries())
	for _, r := range l.Records {
		if s.Start.IsZero() || r.Time.Before(s.Start) {
			s.Start = r.Time
		}
		if r.Time.After(s.End) {
			s.End = r.Time
		}
	}
	return s
}
