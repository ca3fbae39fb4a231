package fleet

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xsearch/internal/obs"
	"xsearch/internal/proxy"
)

// notSummed names the integer fields of proxy.Stats and UpstreamStats
// that merge by a rule other than a sum: the latency tails are the worst
// shard's and so is the mean, the event ring is one ring shared by every
// shard, and an upstream's weight is configuration.
var notSummed = map[string]bool{
	"LatencyP50": true, "LatencyP95": true, "LatencyP99": true,
	"LatencyMean": true, "EventsLogged": true, "Weight": true,
}

// requireSums checks every integer field under total (recursing into
// nested structs) against that field's sum over parts.
func requireSums(t *testing.T, path string, total reflect.Value, parts []reflect.Value) {
	t.Helper()
	for i := 0; i < total.NumField(); i++ {
		f := total.Type().Field(i)
		name := path + f.Name
		if notSummed[f.Name] {
			continue
		}
		var sub []reflect.Value
		var sum int64
		for _, p := range parts {
			v := p.Field(i)
			sub = append(sub, v)
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				sum += v.Int()
			case reflect.Uint64:
				sum += int64(v.Uint())
			}
		}
		switch tv := total.Field(i); tv.Kind() {
		case reflect.Struct:
			requireSums(t, name+".", tv, sub)
		case reflect.Int, reflect.Int64:
			if tv.Int() != sum {
				t.Errorf("Total.%s = %d, want the live shards' sum %d", name, tv.Int(), sum)
			}
		case reflect.Uint64:
			if int64(tv.Uint()) != sum {
				t.Errorf("Total.%s = %d, want the live shards' sum %d", name, tv.Uint(), sum)
			}
		}
	}
}

func ratioOf(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// TestFleetTotalIsMergeOfLiveShards: after traffic and a shard kill, the
// fleet Total is the merge of the live shards' snapshots taken in the same
// Stats call — counters and gauges summed, ratios derived from the summed
// counts (not averaged), tails the worst shard's, upstreams merged by host
// and sorted — and the dead shard adds nothing.
func TestFleetTotalIsMergeOfLiveShards(t *testing.T) {
	_, srvA := newIndexTestEngine(t)
	_, srvB := newIndexTestEngine(t)
	g, err := New(Config{
		Shards: 3,
		ShardConfig: proxy.Config{
			K:             2,
			Engines:       []proxy.EngineSpec{{Host: srvA.Addr()}, {Host: srvB.Addr(), Weight: 2}},
			Seed:          11,
			CacheBytes:    1 << 20,
			IndexBytes:    1 << 20,
			Observability: true,
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})

	// Every shard gets distinct queries; only shard 0's are asked again, so
	// the shards' cache-hit ratios differ and an average of them is not the
	// ratio of the summed counts.
	ctx := context.Background()
	issued := uint64(0)
	for i := 0; i < 24; i++ {
		q := fmt.Sprintf("fleet total query %d", i)
		p, err := g.Shard(i % 3)
		if err != nil {
			t.Fatal(err)
		}
		asks := 1
		if i%3 == 0 {
			asks = 3
		}
		for a := 0; a < asks; a++ {
			issued++
			if _, err := p.ServeQuery(ctx, q); err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
		}
	}

	// Kill shard 2 while another goroutine keeps reading Stats, so a
	// reader can meet the shard as it is retired (a race for -race).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = g.Stats()
			}
		}
	}()
	if err := g.Kill(ctx, 2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	close(stop)
	wg.Wait()

	st := g.Stats()
	var live []proxy.Stats
	for _, ss := range st.Shards {
		if ss.Alive {
			live = append(live, ss.Proxy)
		} else if !reflect.DeepEqual(ss.Proxy, proxy.Stats{}) {
			t.Errorf("dead shard %d carries a snapshot: %+v", ss.Index, ss.Proxy)
		}
	}
	if len(live) != 2 || st.AliveShards != 2 {
		t.Fatalf("%d live shards (AliveShards %d), want 2", len(live), st.AliveShards)
	}
	tot := st.Total
	if tot.Requests == 0 || tot.CacheHits == 0 || tot.Requests >= issued {
		t.Fatalf("Total.Requests %d, CacheHits %d of %d issued: want the live shards' share of real traffic",
			tot.Requests, tot.CacheHits, issued)
	}

	// Sums.
	parts := make([]reflect.Value, len(live))
	for i := range live {
		parts[i] = reflect.ValueOf(live[i])
	}
	requireSums(t, "", reflect.ValueOf(tot), parts)
	var replies uint64
	for _, p := range live {
		replies += p.Stages[obs.StageReply].Count
	}
	if got := tot.Stages[obs.StageReply].Count; got != replies || got == 0 {
		t.Errorf("Total reply-stage count %d, want the live shards' sum %d", got, replies)
	}

	// Ratios from the summed counts.
	for _, r := range []struct {
		name        string
		got         float64
		part, whole uint64
	}{
		{"CacheHitRatio", tot.CacheHitRatio, tot.CacheHits, tot.CacheHits + tot.CacheMisses},
		{"IndexHitRatio", tot.IndexHitRatio, tot.IndexHits, tot.IndexHits + tot.IndexMisses},
		{"LocalHitRatio", tot.LocalHitRatio, tot.CacheHits + tot.IndexHits, tot.CacheHits + tot.CacheMisses},
		{"PoolReuseRatio", tot.PoolReuseRatio, tot.PoolReuses, tot.PoolReuses + tot.PoolDials},
		{"CoalesceRatio", tot.CoalesceRatio, tot.CoalesceShared, tot.CoalesceShared + tot.CoalesceLed},
	} {
		if want := ratioOf(r.part, r.whole); r.got != want {
			t.Errorf("Total.%s = %v, want %d/%d = %v", r.name, r.got, r.part, r.whole, want)
		}
	}
	if avg := (live[0].CacheHitRatio + live[1].CacheHitRatio) / 2; avg == tot.CacheHitRatio {
		t.Errorf("the shards' cache-hit ratios average to the total's %v: the traffic does not tell the rules apart", avg)
	}

	// Tails and the mean are the worst shard's.
	for _, r := range []struct {
		name string
		got  time.Duration
		of   func(proxy.Stats) time.Duration
	}{
		{"LatencyP50", tot.LatencyP50, func(s proxy.Stats) time.Duration { return s.LatencyP50 }},
		{"LatencyP95", tot.LatencyP95, func(s proxy.Stats) time.Duration { return s.LatencyP95 }},
		{"LatencyP99", tot.LatencyP99, func(s proxy.Stats) time.Duration { return s.LatencyP99 }},
		{"LatencyMean", tot.LatencyMean, func(s proxy.Stats) time.Duration { return s.LatencyMean }},
	} {
		if want := max(r.of(live[0]), r.of(live[1])); r.got != want {
			t.Errorf("Total.%s = %v, want the worst shard's %v", r.name, r.got, want)
		}
	}
	if want := max(live[0].EventsLogged, live[1].EventsLogged); tot.EventsLogged != want {
		t.Errorf("Total.EventsLogged = %d, want the shared ring's %d (never a sum)", tot.EventsLogged, want)
	}

	// Upstreams merged by host and sorted.
	if len(tot.Upstreams) != 2 || !slices.IsSortedFunc(tot.Upstreams, func(a, b proxy.UpstreamStats) int {
		return strings.Compare(a.Host, b.Host)
	}) {
		t.Fatalf("Total.Upstreams = %+v, want both engines sorted by host", tot.Upstreams)
	}
	for _, u := range tot.Upstreams {
		var ups []reflect.Value
		for _, p := range live {
			i := slices.IndexFunc(p.Upstreams, func(x proxy.UpstreamStats) bool { return x.Host == u.Host })
			if i < 0 {
				t.Fatalf("shard snapshot lacks upstream %s", u.Host)
			}
			ups = append(ups, reflect.ValueOf(p.Upstreams[i]))
			if p.Upstreams[i].Weight != u.Weight {
				t.Errorf("upstream %s weight %d, shard has %d", u.Host, u.Weight, p.Upstreams[i].Weight)
			}
		}
		requireSums(t, "Upstreams["+u.Host+"].", reflect.ValueOf(u), ups)
		if u.Served == 0 {
			t.Errorf("upstream %s served nothing", u.Host)
		}
		if want := ratioOf(u.PoolReuses, u.PoolReuses+u.PoolDials); u.PoolReuseRatio != want {
			t.Errorf("upstream %s reuse ratio %v, want %v", u.Host, u.PoolReuseRatio, want)
		}
	}
}
