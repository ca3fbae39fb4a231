package fleet

import (
	"context"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/attestation"
	"xsearch/internal/broker"
	"xsearch/internal/core"
	"xsearch/internal/dataset"
	"xsearch/internal/enclave"
	"xsearch/internal/proxy"
	"xsearch/internal/simattack"
)

// reidentification is the SimAttack fixture of the drain-privacy tests:
// fill holds real past queries to load shard windows with, and rate is the
// attack's re-identification rate over 150 held-out records, each hidden
// among 3 fakes drawn from pool.
func reidentification(t *testing.T) (fill []string, rate func(pool []string) float64) {
	t.Helper()
	genCfg := dataset.DefaultGeneratorConfig()
	genCfg.Users, genCfg.MeanQueries, genCfg.Seed = 40, 60, 3
	gen, err := dataset.NewGenerator(genCfg)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	train, test, err := gen.Generate().Split(0.5)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	attack, err := simattack.New(train, simattack.DefaultAlpha)
	if err != nil {
		t.Fatalf("simattack: %v", err)
	}
	fill = train.Queries()
	if len(fill) > 1200 {
		fill = fill[:1200]
	}
	testLog := &dataset.Log{Records: test.Records}
	if len(testLog.Records) > 150 {
		testLog.Records = testLog.Records[:150]
	}
	rate = func(pool []string) float64 {
		h, err := core.NewHistory(len(pool) + 1)
		if err != nil {
			t.Fatalf("history: %v", err)
		}
		for _, q := range pool {
			h.Add(q)
		}
		rng := mrand.New(mrand.NewPCG(11, 17))
		return attack.EvaluateObfuscated(testLog, func(rec dataset.Record) core.ObfuscatedQuery {
			fakes := h.Sample(3, rng.IntN)
			return core.Place(rng.IntN, rec.Query, fakes)
		})
	}
	return fill, rate
}

// fillMirrored serves queries round-robin over the shards, each through
// its own node's in-process client, mirroring the assignment so the test
// knows each enclave's exact window contents without ever opening a
// sealed blob: mirrors[i] is what shard i holds.
func fillMirrored(t *testing.T, g *Gateway, queries []string) [][]string {
	t.Helper()
	mirrors := make([][]string, g.ShardCount())
	for i, q := range queries {
		idx := i % g.ShardCount()
		p, err := g.Shard(idx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ServeQuery(context.Background(), q); err != nil {
			t.Fatalf("fill query: %v", err)
		}
		mirrors[idx] = append(mirrors[idx], q)
	}
	for i, m := range mirrors {
		if len(m) == 0 {
			t.Fatalf("degenerate routing: shard %d holds no query", i)
		}
	}
	return mirrors
}

// fillNumbered fills the shards' windows with n numbered queries.
func fillNumbered(t *testing.T, g *Gateway, n int, format string, args ...any) {
	t.Helper()
	queries := make([]string, n)
	for i := range queries {
		queries[i] = fmt.Sprintf(format, append(args, i)...)
	}
	fillMirrored(t, g, queries)
}

// requireInvariant asserts the per-shard EPC identity the whole memory
// story rests on: enclave heap == history bytes + cache bytes + index
// bytes.
func requireInvariant(t *testing.T, label string, ps proxy.Stats) {
	t.Helper()
	if ps.Enclave.HeapBytes != ps.HistoryB+ps.CacheB+ps.IndexB {
		t.Fatalf("%s: EPC invariant broken: heap=%d history=%d cache=%d index=%d",
			label, ps.Enclave.HeapBytes, ps.HistoryB, ps.CacheB, ps.IndexB)
	}
}

// TestDrainSealedHandoff covers the planned-drain path end to end: a shard
// drained mid-session hands its history window to its successor as a
// sealed blob, the heap == history + cache + index invariant holds on both shards
// before the drain and on the successor after it, the drained sessions
// recover by re-attesting, and SimAttack re-identification does not
// improve after the migration (the merged fake pool is no easier to
// attack than the successor's own).
func TestDrainSealedHandoff(t *testing.T) {
	fill, rate := reidentification(t)
	g, err := New(Config{
		Shards:         2,
		ShardConfig:    proxy.Config{K: 3, EchoMode: true, Seed: 9},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	mirrors := fillMirrored(t, g, fill)

	// Establish live sessions on both shards — the drain happens
	// mid-session.
	var brokers []*broker.Broker
	covered := func() bool {
		st := g.Stats()
		return st.Shards[0].Sessions > 0 && st.Shards[1].Sessions > 0
	}
	for i := 0; i < 64 && !covered(); i++ {
		b, err := broker.New(broker.Config{
			ProxyURL:   g.URL(),
			ServiceKey: g.AttestationService().PublicKey(),
			Policy: attestation.Policy{
				AcceptedMeasurements: []enclave.Measurement{g.Measurement()},
			},
		})
		if err != nil {
			t.Fatalf("broker.New: %v", err)
		}
		if err := b.Connect(ctx); err != nil {
			t.Fatalf("Connect: %v", err)
		}
		brokers = append(brokers, b)
	}
	if !covered() {
		t.Fatalf("sessions never covered both shards: %+v", g.Stats().Shards)
	}

	pre := g.Stats()
	for i, ss := range pre.Shards {
		requireInvariant(t, fmt.Sprintf("pre-drain shard %d", i), ss.Proxy)
		if ss.Proxy.HistoryLen != len(mirrors[i]) {
			t.Fatalf("shard %d history %d != mirror %d", i, ss.Proxy.HistoryLen, len(mirrors[i]))
		}
	}

	// Re-identification with the successor's own fake pool, before the
	// migration changes it.
	preRate := rate(mirrors[1])

	rep, err := g.Drain(ctx, 0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Successor != 1 {
		t.Fatalf("successor = %d, want 1 (only live shard)", rep.Successor)
	}
	if rep.MigratedQueries != len(mirrors[0]) {
		t.Fatalf("migrated %d queries, want %d", rep.MigratedQueries, len(mirrors[0]))
	}
	if rep.MigratedBytes <= 0 {
		t.Fatalf("migrated %d bytes", rep.MigratedBytes)
	}

	post := g.Stats()
	if post.Shards[0].Alive {
		t.Fatal("drained shard still alive")
	}
	succ := post.Shards[1].Proxy
	requireInvariant(t, "post-drain successor", succ)
	if want := len(mirrors[0]) + len(mirrors[1]); succ.HistoryLen != want {
		t.Fatalf("successor history %d, want %d (own + migrated)", succ.HistoryLen, want)
	}
	if post.Drains != 1 || post.MigratedQueries != uint64(len(mirrors[0])) {
		t.Fatalf("drain counters wrong: %+v", post)
	}

	// Mid-session recovery: every broker — including those whose shard
	// just drained away — keeps working by re-attesting onto the survivor.
	for i, b := range brokers {
		if _, err := b.Search(ctx, fmt.Sprintf("post-drain search %d", i)); err != nil {
			t.Fatalf("post-drain search %d: %v", i, err)
		}
	}

	// The migrated pool is the successor's own plus the drained shard's —
	// a strictly larger, more diverse fake source. Re-identification must
	// not improve (small tolerance for sampling noise).
	postRate := rate(append(append([]string{}, mirrors[1]...), mirrors[0]...))
	if postRate > preRate+0.05 {
		t.Fatalf("re-identification improved after migration: pre=%.3f post=%.3f", preRate, postRate)
	}
}

// TestDrainKeepsObfuscationEffective drains the other direction from
// TestDrainSealedHandoff, with no session open: shard 1's window merges
// into shard 0, and SimAttack re-identification against the merged fake
// pool must not improve over the survivor's own pool.
func TestDrainKeepsObfuscationEffective(t *testing.T) {
	fill, rate := reidentification(t)
	g, err := New(Config{
		Shards:         2,
		ShardConfig:    proxy.Config{K: 3, EchoMode: true, Seed: 9},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	}()
	mirrors := fillMirrored(t, g, fill)

	const survivor, retired = 0, 1
	if _, err := g.Drain(context.Background(), retired); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := g.Stats()
	surv := st.Shards[survivor].Proxy
	if want := len(mirrors[0]) + len(mirrors[1]); surv.HistoryLen != want {
		t.Fatalf("survivor history %d, want %d (own + migrated)", surv.HistoryLen, want)
	}
	requireInvariant(t, "post-drain survivor", surv)

	preRate := rate(mirrors[survivor])
	postRate := rate(append(append([]string{}, mirrors[survivor]...), mirrors[retired]...))
	if postRate > preRate+0.05 {
		t.Fatalf("re-identification improved after the drain: pre=%.3f post=%.3f", preRate, postRate)
	}
}

// TestConcurrentDrainsConserveHistory drains shards 0 and 1 of a
// three-shard fleet at once. With equal minted counts each is the other's
// successor, so whichever drain runs first hands its window to the other
// drained shard. Drains run one at a time, so the second drain hands that
// merged window on to the survivor instead of racing the merge: every
// history entry the fleet held before ends up on shard 2.
func TestConcurrentDrainsConserveHistory(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := echoFleet(t, 3, time.Hour)
		for _, pair := range [][2]int{{0, 1}, {1, 0}} {
			g.shards[pair[0]].draining.Store(true)
			succ := g.pick()
			g.shards[pair[0]].draining.Store(false)
			if succ != g.shards[pair[1]] {
				t.Fatalf("draining shard %d picks shard %d: the test needs shards 0 and 1 to succeed each other", pair[0], succ.index)
			}
		}
		ctx := context.Background()
		fillNumbered(t, g, 300, "trial %d fill %d", trial)
		pre := 0
		for _, ss := range g.Stats().Shards {
			pre += ss.Proxy.HistoryLen
		}

		start := make(chan struct{})
		errs := make(chan error, 2)
		for _, i := range []int{0, 1} {
			go func() {
				<-start
				_, err := g.Drain(ctx, i)
				errs <- err
			}()
		}
		close(start)
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("trial %d: Drain: %v", trial, err)
			}
		}

		post := 0
		for _, ss := range g.Stats().Shards {
			if ss.Alive {
				requireInvariant(t, fmt.Sprintf("trial %d survivor %d", trial, ss.Index), ss.Proxy)
				post += ss.Proxy.HistoryLen
			}
		}
		if post != pre {
			t.Fatalf("trial %d: survivors hold %d of %d history entries", trial, post, pre)
		}
		ctxS, cancel := context.WithTimeout(ctx, 2*time.Second)
		_ = g.Shutdown(ctxS)
		cancel()
	}
}

// cutCtx is a context that turns Canceled after its first n Err calls. An
// ecall checks Err once on entry, so a drain run under it fails at its
// (n+1)th enclave crossing.
type cutCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCutCtx(n int) *cutCtx {
	c := &cutCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(int64(n))
	return c
}

func (c *cutCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

func (c *cutCtx) Done() <-chan struct{} { return c.done }

// TestDrainRetryMergesOnce cuts a drain's context after each of its first
// crossings and retries a failed drain with a live one: however the first
// attempt ended, the successor holds its own window plus the drained one
// exactly once, and the EPC identity holds.
func TestDrainRetryMergesOnce(t *testing.T) {
	for cut := 0; cut <= 4; cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			g := echoFleet(t, 3, time.Hour)
			ctx := context.Background()
			fillNumbered(t, g, 300, "retried drain fill %d")
			// Every minted count is 0, so the pick's tie rule names the
			// lowest other index.
			const drained, succ = 0, 1
			pre := g.Stats()
			own, moved := pre.Shards[succ].Proxy.HistoryLen, pre.Shards[drained].Proxy.HistoryLen

			rep, err := g.Drain(newCutCtx(cut), drained)
			if err != nil {
				if rep, err = g.Drain(ctx, drained); err != nil {
					t.Fatalf("retried Drain: %v", err)
				}
			}
			if rep.Successor != succ || rep.MigratedQueries != moved {
				t.Errorf("drain report %+v, want %d queries into shard %d", rep, moved, succ)
			}
			post := g.Stats()
			if post.Shards[drained].Alive {
				t.Error("drained shard still alive")
			}
			requireInvariant(t, "successor", post.Shards[succ].Proxy)
			if got := post.Shards[succ].Proxy.HistoryLen; got != own+moved {
				t.Fatalf("successor holds %d queries, want %d (%d own + %d drained)", got, own+moved, own, moved)
			}
		})
	}
}
