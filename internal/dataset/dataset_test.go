package dataset

import (
	"bytes"
	"testing"
	"time"
)

func testConfig() GeneratorConfig {
	cfg := DefaultGeneratorConfig()
	cfg.Users = 30
	cfg.MeanQueries = 60
	return cfg
}

func TestVocabulary(t *testing.T) {
	if len(Topics) < 30 {
		t.Errorf("only %d topics", len(Topics))
	}
	for _, topic := range Topics {
		if len(topic.Words) < 20 {
			t.Errorf("topic %q has only %d words", topic.Name, len(topic.Words))
		}
	}
	words := map[string]bool{}
	for _, topic := range Topics {
		for _, w := range topic.Words {
			words[w] = true
		}
	}
	if len(words) < 500 {
		t.Errorf("vocabulary too small: %d distinct words", len(words))
	}
}

// byUser groups records by user ID, preserving record order.
func byUser(l *Log) map[int][]Record {
	m := make(map[int][]Record)
	for _, r := range l.Records {
		m[r.UserID] = append(m[r.UserID], r)
	}
	return m
}

func TestNewGeneratorValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*GeneratorConfig)
	}{
		{"zero users", func(c *GeneratorConfig) { c.Users = 0 }},
		{"zero queries", func(c *GeneratorConfig) { c.MeanQueries = 0 }},
		{"zero topics", func(c *GeneratorConfig) { c.TopicsPerUser = 0 }},
		{"too many topics", func(c *GeneratorConfig) { c.TopicsPerUser = len(Topics) + 1 }},
		{"bad concentration", func(c *GeneratorConfig) { c.TopicConcentration = 0 }},
		{"bad window", func(c *GeneratorConfig) { c.End = c.Start }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if _, err := NewGenerator(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := g1.Generate(), g2.Generate()
	if len(l1.Records) != len(l2.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(l1.Records), len(l2.Records))
	}
	for i := range l1.Records {
		if l1.Records[i] != l2.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, l1.Records[i], l2.Records[i])
		}
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := g.Generate()
	stats := log.Stats()
	if stats.Users != 30 {
		t.Errorf("Users = %d, want 30", stats.Users)
	}
	if stats.Records < 30*30 {
		t.Errorf("too few records: %d", stats.Records)
	}
	// Chronological order.
	for i := 1; i < len(log.Records); i++ {
		if log.Records[i].Time.Before(log.Records[i-1].Time) {
			t.Fatal("records not sorted by time")
		}
	}
	// Timestamps inside the window.
	cfg := testConfig()
	if stats.Start.Before(cfg.Start) || stats.End.After(cfg.End) {
		t.Errorf("window violated: [%v, %v]", stats.Start, stats.End)
	}
	// Activity is skewed: first user must have more queries than the last.
	users := byUser(log)
	if len(users[1]) <= len(users[30]) {
		t.Errorf("activity not skewed: user1=%d user30=%d", len(users[1]), len(users[30]))
	}
	// Clicked records have both rank and URL; unclicked neither.
	for _, r := range log.Records {
		if (r.ItemRank > 0) != (r.ClickURL != "") {
			t.Fatalf("inconsistent click fields: %+v", r)
		}
	}
}

func TestUserModelWeights(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.users {
		var sum float64
		for _, w := range u.TopicWeights {
			if w <= 0 {
				t.Fatalf("non-positive weight for user %d", u.ID)
			}
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("weights of user %d sum to %f", u.ID, sum)
		}
		seen := map[int]struct{}{}
		for _, ti := range u.TopicIndices {
			if _, dup := seen[ti]; dup {
				t.Fatalf("duplicate topic for user %d", u.ID)
			}
			seen[ti] = struct{}{}
		}
	}
}

// TestWriteTSVGolden pins WriteTSV's bytes: the AOL header, one
// tab-separated line per record, and a blank rank and click for a record
// without a click.
func TestWriteTSVGolden(t *testing.T) {
	t0 := time.Date(2006, 3, 1, 10, 4, 5, 0, time.UTC)
	log := &Log{Records: []Record{
		{UserID: 12, Query: "red sports car", Time: t0, ItemRank: 3, ClickURL: "http://www.car.com/x"},
		{UserID: 7, Query: "chicken recipe", Time: t0.Add(90 * time.Minute)},
	}}
	var buf bytes.Buffer
	if err := log.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n" +
		"12\tred sports car\t2006-03-01 10:04:05\t3\thttp://www.car.com/x\n" +
		"7\tchicken recipe\t2006-03-01 11:34:05\t\t\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTSV wrote\n%q\nwant\n%q", got, want)
	}
}

func TestSplit(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := g.Generate()
	train, test, err := log.Split(2.0 / 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Records)+len(test.Records) != len(log.Records) {
		t.Fatal("split lost records")
	}
	// Per user: train is a chronological prefix.
	trainBy, testBy := byUser(train), byUser(test)
	for uid, trainRecs := range trainBy {
		testRecs := testBy[uid]
		if len(trainRecs) == 0 || len(testRecs) == 0 {
			continue
		}
		lastTrain := trainRecs[len(trainRecs)-1].Time
		for _, r := range testRecs {
			if r.Time.Before(lastTrain) {
				t.Fatalf("user %d has test record before training cut", uid)
			}
		}
		frac := float64(len(trainRecs)) / float64(len(trainRecs)+len(testRecs))
		if frac < 0.5 || frac > 0.75 {
			t.Errorf("user %d train fraction %f", uid, frac)
		}
	}
	if _, _, err := log.Split(0); err == nil {
		t.Error("Split(0) should fail")
	}
	if _, _, err := log.Split(1); err == nil {
		t.Error("Split(1) should fail")
	}
}

func TestTopActiveUsers(t *testing.T) {
	log := &Log{Records: []Record{
		{UserID: 1, Query: "a", Time: time.Now()},
		{UserID: 2, Query: "b", Time: time.Now()},
		{UserID: 2, Query: "c", Time: time.Now()},
		{UserID: 3, Query: "d", Time: time.Now()},
		{UserID: 3, Query: "e", Time: time.Now()},
		{UserID: 3, Query: "f", Time: time.Now()},
	}}
	top := log.TopActiveUsers(2)
	if len(top) != 2 || top[0] != 3 || top[1] != 2 {
		t.Errorf("TopActiveUsers = %v, want [3 2]", top)
	}
	if got := log.TopActiveUsers(10); len(got) != 3 {
		t.Errorf("TopActiveUsers(10) = %v", got)
	}
}

func TestFilterUsers(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := g.Generate()
	sub := log.FilterUsers([]int{1, 2})
	ids := sub.UserIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("FilterUsers kept %v", ids)
	}
}

func TestGenerateQueries(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := g.GenerateQueries(1000)
	if len(qs) != 1000 {
		t.Fatalf("got %d queries", len(qs))
	}
	distinct := map[string]struct{}{}
	for _, q := range qs {
		if q == "" {
			t.Fatal("empty query")
		}
		distinct[q] = struct{}{}
	}
	// Queries should be diverse.
	if len(distinct) < 500 {
		t.Errorf("only %d distinct of 1000", len(distinct))
	}
}

func TestUniqueQueries(t *testing.T) {
	log := &Log{Records: []Record{
		{UserID: 1, Query: "a", Time: time.Now()},
		{UserID: 1, Query: "a", Time: time.Now()},
		{UserID: 2, Query: "b", Time: time.Now()},
	}}
	uq := log.UniqueQueries()
	if len(uq) != 2 || uq[0] != "a" || uq[1] != "b" {
		t.Errorf("UniqueQueries = %v", uq)
	}
}
