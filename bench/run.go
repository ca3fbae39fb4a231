package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"xsearch/internal/broker"
	"xsearch/internal/core"
	"xsearch/internal/proxy"
	"xsearch/internal/textutil"
)

// sizes scales a run. Only fullSizes produces numbers; quickSizes exists
// for the smoke test.
type sizes struct {
	slices   int           // timed slices
	slice    time.Duration // length of one
	history  int           // HistoryCapacity, and warm-up queries per shard
	pool     int           // distinct queries behind the Zipf stream
	connects int           // fresh brokers connected before each slice
	setups   int           // stack builds in a run, spread over its slices
	sample   int           // queries per rung of the traced pass
	verify   int           // replies checked result by result after the timed slices
}

// sliceLen is the length of one timed slice. The shared host's speed moves
// within seconds, and only ever downwards from its quiet level; half a
// second is short enough for a run to hold slices the host left alone, and
// long enough to hold a hundred requests of the slowest workload.
const sliceLen = 500 * time.Millisecond

// fullSizes cuts seconds of measuring into slices. A traced run measures a
// fifth of that (the slices only feed counters there) and spends the rest
// on the ladder, so both kinds of run take about as long.
func fullSizes(seconds int, tracedOnly bool) sizes {
	slices := int(time.Duration(seconds) * time.Second / sliceLen)
	if tracedOnly {
		slices = max(slices/5, 1)
	}
	return sizes{slices: slices, slice: sliceLen, history: 2000, pool: 2000,
		connects: 12, setups: 20, sample: 500, verify: 100}
}

func quickSizes() sizes {
	return sizes{slices: 2, slice: sliceLen, history: 100, pool: 200,
		connects: 3, setups: 2, sample: 25, verify: 20}
}

// value is one reported metric. A time-based metric is measured many times
// in a run and read from the quiet part of them (see quietCount): Quiet
// holds those measurements, whose range is the metric's spread, and Whole
// is the median over all of them, which shows how far the host pushed the
// run off its quiet level. N is the sample count behind a percentile or
// ratio.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Quiet []float64 `json:"quiet,omitempty"`
	Whole float64   `json:"whole_run,omitempty"`
	N     int       `json:"n,omitempty"`
}

// quietCount is how many of n repeated measurements a time-based metric is
// read from: the best sixth. A neighbour on the shared host only ever
// slows a measurement down, for seconds to minutes at a time, so the
// median of a run follows the host while its best measurements sit near
// the level the code reaches when left alone; that level is what two
// commits can be compared on. A sixth of a 24 s run is 4 s, which leaves
// the slowest workload over a thousand latencies for its 99th percentile.
func quietCount(n int) int { return max(1, n/6) }

// result is everything one workload run reports.
type result struct {
	Workload    string  `json:"workload"`
	Why         string  `json:"why"`
	Callers     int     `json:"callers"`
	Slices      int     `json:"slices"`
	SliceSec    float64 `json:"slice_seconds"`
	Fingerprint string  `json:"stream_fingerprint"`
	// HostSlowdown is the factor the end-to-end times were divided by.
	HostSlowdown float64          `json:"host_slowdown"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	EndToEnd     map[string]value `json:"end_to_end,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	Ladder       *ladder          `json:"ladder,omitempty"`
	Checks       []check          `json:"verify"`
	Correct      bool             `json:"correct"`
}

// caller is one closed-loop client: a broker, its strided slice of the
// stream, and a preallocated latency buffer.
type caller struct {
	b      *broker.Broker
	pos    int
	stride int
	lat    []int64

	attempted int
	failed    int // Search returned an error
	empty     int // reply decoded but held no result where results are expected
	unkept    int // a result sharing no term with the query (Algorithm 2)
	firstErr  error
}

type runner struct {
	s       *stack
	seed    uint64
	sz      sizes
	callers []*caller
	ctx     context.Context
	// capture holds the warm-up replies by stream position when a traced
	// pass will need them to fill the harness's own cache and index.
	capture [][]core.Result

	connectNS    [][]int64 // one batch before each slice
	connectFails int
	setupSec     []float64
	warmupSec    float64

	// engineLogWarm is the engine log's length after warm-up: from there
	// on every logged query must have k+1 sub-queries.
	engineLogWarm int
	// What the traced pass sent on its own account, for the gate.
	harnessFetches, traceAttempted, traceFailed int

	// Totals over the timed slices only; the connects and set-ups between
	// slices are outside them.
	totals     statsDelta
	mallocs    uint64
	allocBytes uint64
	gcCPU, cpu float64 // seconds
	engineReqs int
	lastStats  []proxy.Stats // after the last slice
	slices     []sliceStat
}

// sliceStat is one timed slice. lat holds each caller's latencies of the
// slice, as views into the callers' buffers.
type sliceStat struct {
	wall, cpu float64 // seconds
	ok        int
	lat       [][]int64
	calibNS   float64
}

func (sl sliceStat) qps() float64 { return float64(sl.ok) / sl.wall }

func newRunner(s *stack, seed uint64, sz sizes, capture bool) *runner {
	r := &runner{s: s, seed: seed, sz: sz, ctx: context.Background()}
	seconds := float64(sz.slices) * sz.slice.Seconds()
	for i, b := range s.brokers {
		r.callers = append(r.callers, &caller{b: b, pos: i, stride: len(s.brokers),
			lat: make([]int64, 0, int(seconds*float64(s.w.latPerSec))+1024)})
	}
	if capture {
		r.capture = make([][]core.Result, r.warmupCount())
	}
	return r
}

// warmupCount fills every shard's history window: fakes are then always k
// real past queries and the EPC heap is steady.
func (r *runner) warmupCount() int { return r.sz.history * len(r.s.shards) }

// search issues the caller's next query and checks the reply. deep also
// applies Algorithm 2's keep rule to every result; it is used outside the
// timed slices only.
func (c *caller) search(r *runner, deep bool) time.Duration {
	w := r.s.w
	pos := c.pos
	q := r.s.stream[pos%len(r.s.stream)]
	c.pos += c.stride
	start := time.Now()
	res, err := c.b.Search(r.ctx, q)
	d := time.Since(start)
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("query %d %q: %w", pos, q, err)
		}
	case w.wantResults && len(res) == 0:
		c.empty++
	}
	if deep {
		for _, hit := range res {
			if textutil.CommonWords(q, hit.Title+" "+hit.Snippet) == 0 {
				c.unkept++
				break
			}
		}
	}
	if pos < len(r.capture) {
		r.capture[pos] = res
	}
	return d
}

// drive runs every caller's loop concurrently: count queries each when
// count > 0, otherwise until the deadline. Latencies are recorded only for
// deadline-driven (timed) loops.
func (r *runner) drive(count int, d time.Duration, deepEvery int) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			if count > 0 {
				for i := 0; i < count; i++ {
					c.search(r, deepEvery > 0 && i%deepEvery == 0)
				}
				return
			}
			for time.Now().Before(deadline) {
				d := c.search(r, false)
				if len(c.lat) < cap(c.lat) {
					c.lat = append(c.lat, int64(d))
				}
			}
		}(c)
	}
	wg.Wait()
}

func (r *runner) warmup() {
	per := (r.warmupCount() + len(r.callers) - 1) / len(r.callers)
	start := time.Now()
	r.drive(per, 0, 50)
	r.warmupSec = time.Since(start).Seconds()
	r.engineLogWarm = len(r.s.engine.QueryLog())
}

// connects times Broker.Connect (attestation plus key exchange) on a batch
// of n fresh brokers, one after another.
func (r *runner) connects(n int) {
	batch := make([]int64, 0, n)
	defer func() { r.connectNS = append(r.connectNS, batch) }()
	for i := 0; i < n; i++ {
		b, release, err := r.s.newBroker()
		if err != nil {
			r.connectFails++
			continue
		}
		start := time.Now()
		err = connect(b)
		d := time.Since(start)
		release()
		if err != nil {
			r.connectFails++
			continue
		}
		batch = append(batch, int64(d))
	}
}

// setup builds the workload's stack once more, from scratch, and tears it
// down again: one more measurement of setup_s.
func (r *runner) setup() error {
	start := time.Now()
	s, err := buildStack(r.s.w, r.seed, r.sz)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", r.s.w.name, err)
	}
	r.setupSec = append(r.setupSec, time.Since(start).Seconds())
	s.teardown()
	runtime.GC() // its garbage is not the next slice's to collect
	return nil
}

// calibTable is what calibrate walks: 32 MB, more than the CPU's private
// caches hold, mapped outside the Go heap so that it changes nothing about
// the garbage collector's pacing of the program under test.
var calibTable = sync.OnceValue(func() []byte {
	t, err := syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bench: mapping the calibration table: %v", err))
	}
	for i := range t {
		t[i] = byte(i) // fault every page in before anything is timed
	}
	return t
})

// calibrate times a fixed loop of random read-modify-writes over
// calibTable. It allocates nothing and calls nothing, so it depends on the
// host alone, and a neighbour that slows the program's allocation-heavy
// string work slows it too (a pure-ALU loop stays within 2 % while both
// swing by a quarter): it is the run's measure of host speed.
func calibrate() float64 {
	t := calibTable()
	mask := uint64(len(t) - 1)
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask] += byte(x)
	}
	return float64(time.Since(start).Nanoseconds())
}

// calibNominalNS is what calibrate reads on this class of host (2 vCPUs of a
// 2.1 GHz Xeon) when no neighbour is active.
const calibNominalNS = 3.8e6

// hostSlowdown is how much slower than nominal the host ran during this
// run, read from the quiet sixth of the calibration loops that sit between
// the slices: 1 on a quiet host, 1.2 in one of its loaded phases. Those
// phases last minutes, longer than a run, so no choice of slices escapes
// them; instead every end-to-end time is divided by this factor (and
// throughput multiplied), which makes it a time at nominal host speed.
func (r *runner) hostSlowdown() float64 {
	var calib []float64
	for _, sl := range r.slices {
		calib = append(calib, sl.calibNS)
	}
	slices.Sort(calib)
	quiet := calib[:quietCount(len(calib))]
	sum := 0.0
	for _, ns := range quiet {
		sum += ns
	}
	return sum / float64(len(quiet)) / calibNominalNS
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// timedSlices is the measurement proper: tracing off, every caller in its
// closed loop, one slice after another. Before each slice, outside its
// window, come a batch of connects, one calibration loop and, before every
// few slices, one more set-up: spread over the run like this, each of them
// meets the same stretch of host time as the slices do.
func (r *runner) timedSlices() error {
	runtime.GC()
	setupEvery := max(1, r.sz.slices/r.sz.setups)
	marks := make([]int, len(r.callers))
	var m0, m1 runtime.MemStats
	for i := 0; i < r.sz.slices; i++ {
		if i%setupEvery == 0 && len(r.setupSec) < r.sz.setups {
			if err := r.setup(); err != nil {
				return err
			}
		}
		r.connects(r.sz.connects)
		sl := sliceStat{calibNS: calibrate()}
		for j, c := range r.callers {
			marks[j] = len(c.lat)
		}
		bad, attempted := r.bad(), r.attempted()
		stats, engine, gc := r.s.stats(), len(r.s.engine.QueryLog()), gcCPUSeconds()
		runtime.ReadMemStats(&m0)
		cpu, start := cpuSeconds(), time.Now()
		r.drive(0, r.sz.slice, 0)
		sl.wall, sl.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu
		runtime.ReadMemStats(&m1)
		r.mallocs += m1.Mallocs - m0.Mallocs
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.gcCPU += gcCPUSeconds() - gc
		r.cpu += sl.cpu
		r.engineReqs += len(r.s.engine.QueryLog()) - engine
		r.lastStats = r.s.stats()
		for j := range stats {
			r.totals.add(stats[j], r.lastStats[j])
		}
		sl.ok = (r.attempted() - attempted) - (r.bad() - bad)
		for j, c := range r.callers {
			sl.lat = append(sl.lat, c.lat[marks[j]:])
		}
		r.slices = append(r.slices, sl)
	}
	return nil
}

// statsDelta sums, over shards and slices, what proxy.Stats() counted
// between two snapshots.
type statsDelta struct {
	ecalls, ocalls, batches, errors uint64
	poolReuses, poolDials           uint64
	cacheHits, cacheMisses          uint64
	indexHits, indexMisses          uint64
}

func (d *statsDelta) add(a, b proxy.Stats) {
	d.ecalls += b.Enclave.ECalls - a.Enclave.ECalls
	d.ocalls += b.Enclave.OCalls - a.Enclave.OCalls
	d.batches += b.BatchesSubmitted - a.BatchesSubmitted
	d.errors += b.Errors - a.Errors
	d.poolReuses += b.PoolReuses - a.PoolReuses
	d.poolDials += b.PoolDials - a.PoolDials
	d.cacheHits += b.CacheHits - a.CacheHits
	d.cacheMisses += b.CacheMisses - a.CacheMisses
	d.indexHits += b.IndexHits - a.IndexHits
	d.indexMisses += b.IndexMisses - a.IndexMisses
}

// verifyPass checks a sample of replies result by result, untimed.
func (r *runner) verifyPass() {
	c := r.callers[0]
	for i := 0; i < r.sz.verify; i++ {
		c.search(r, true)
	}
}

func (r *runner) attempted() int {
	n := 0
	for _, c := range r.callers {
		n += c.attempted
	}
	return n
}

// bad counts replies that failed, were refused, or were incorrect. An empty
// reply is not among them: Algorithm 2 drops every result that a fake query
// matches better, and now and then that is all of them (about one query in
// five thousand here). The gate bounds their share instead.
func (r *runner) bad() int {
	n := 0
	for _, c := range r.callers {
		n += c.failed + c.unkept
	}
	return n
}

// quantile reads the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf reads the median of unsorted integer samples (nearest rank).
func medianOf(xs []int64) float64 {
	return quantile(slices.Sorted(slices.Values(xs)), 0.5)
}

// withUnits returns values restricted to the declared metrics, each with its
// declared unit; a metric nothing measured reads 0.
func withUnits(defs []metricDef, values map[string]value) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}

// timing reads a slice's time-based metrics, in the order of timingNames:
// median and 99th percentile latency in us, replies per second, CPU us per
// reply. samples is the number of latencies behind the percentiles.
func (sl sliceStat) timing() (t [4]float64, samples int) {
	var all []int64
	for _, lat := range sl.lat {
		all = append(all, lat...)
	}
	slices.Sort(all)
	return [4]float64{quantile(all, 0.50) / 1e3, quantile(all, 0.99) / 1e3, sl.qps(),
		sl.cpu * 1e6 / float64(max(sl.ok, 1))}, len(all)
}

var timingNames = [4]string{"search_p50_us", "search_p99_us", "throughput_qps", "cpu_us_per_query"}

// timingValues reads the closed loop's time-based metrics from the quiet
// slices, the ones with the highest throughput, added up into one: the
// percentiles are over their pooled latencies, throughput and CPU per reply
// over their summed counts.
func (r *runner) timingValues(out map[string]value) {
	bySpeed := slices.Clone(r.slices)
	slices.SortStableFunc(bySpeed, func(a, b sliceStat) int { return cmp.Compare(b.qps(), a.qps()) })
	quiet := quietCount(len(bySpeed))
	var pooled sliceStat
	var each [4][]float64
	for _, sl := range bySpeed {
		t, _ := sl.timing()
		for i, v := range t {
			each[i] = append(each[i], v)
		}
	}
	for _, sl := range bySpeed[:quiet] {
		pooled.wall, pooled.cpu, pooled.ok = pooled.wall+sl.wall, pooled.cpu+sl.cpu, pooled.ok+sl.ok
		pooled.lat = append(pooled.lat, sl.lat...)
	}
	t, samples := pooled.timing()
	for i, name := range timingNames {
		out[name] = value{Value: t[i], Quiet: each[i][:quiet], Whole: median(each[i]), N: samples}
	}
}

// connectValue reads Broker.Connect's time from the quiet batches, the ones
// with the lowest median: the median of their pooled connects.
func (r *runner) connectValue() value {
	var batches [][]int64
	var all []int64
	for _, b := range r.connectNS {
		if len(b) > 0 {
			batches = append(batches, b)
			all = append(all, b...)
		}
	}
	if len(batches) == 0 {
		return value{}
	}
	slices.SortStableFunc(batches, func(a, b []int64) int { return cmp.Compare(medianOf(a), medianOf(b)) })
	v := value{Whole: medianOf(all) / 1e3}
	var pooled []int64
	for _, b := range batches[:quietCount(len(batches))] {
		pooled = append(pooled, b...)
		v.Quiet = append(v.Quiet, medianOf(b)/1e3)
	}
	v.Value, v.N = medianOf(pooled)/1e3, len(pooled)
	return v
}

// connectsTried counts the connects of all batches, failed ones too.
func (r *runner) connectsTried() int { return r.sz.connects * len(r.connectNS) }

// setupValue reads set-up time from the quiet builds, the fastest: their
// mean.
func (r *runner) setupValue() value {
	sorted := slices.Sorted(slices.Values(r.setupSec))
	quiet := sorted[:quietCount(len(sorted))]
	sum := 0.0
	for _, s := range quiet {
		sum += s
	}
	return value{Value: sum / float64(len(quiet)), Quiet: quiet, Whole: median(sorted), N: len(sorted)}
}

// endToEndValues turns the timed slices into the declared metrics.
func (r *runner) endToEndValues() map[string]value {
	done := 0
	for _, sl := range r.slices {
		done += sl.ok
	}
	queries := float64(max(done, 1))
	var heap int64
	for _, st := range r.lastStats {
		heap += st.Enclave.HeapBytes
	}
	total := r.attempted() + r.connectsTried()
	out := map[string]value{
		"connect_p50_us": r.connectValue(),
		"setup_s":        r.setupValue(),
	}
	r.timingValues(out)
	// Everything so far is a time (or, for throughput, a rate): bring it to
	// nominal host speed.
	slowdown := r.hostSlowdown()
	for name, v := range out {
		scale := 1 / slowdown
		if name == "throughput_qps" {
			scale = slowdown
		}
		v.Value, v.Whole = v.Value*scale, v.Whole*scale
		for i := range v.Quiet {
			v.Quiet[i] *= scale
		}
		out[name] = v
	}
	out["allocs_per_query"] = value{Value: float64(r.mallocs) / queries, N: done}
	out["alloc_kb_per_query"] = value{Value: float64(r.allocBytes) / 1024 / queries, N: done}
	out["epc_heap_kb"] = value{Value: float64(heap) / 1024}
	out["success_ratio"] = value{Value: 1 - float64(r.bad()+r.connectFails)/float64(total), N: total}
	return withUnits(endToEnd, out)
}

// runWorkload runs one workload from set-up to teardown. wantE2E selects
// the untraced metrics, wantTrace the traced pass; a full run wants both.
func runWorkload(w *workload, seed uint64, sz sizes, wantE2E, wantTrace bool) (*result, []span, error) {
	start := time.Now()
	s, err := buildStack(w, seed, sz)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer s.teardown()

	r := newRunner(s, seed, sz, wantTrace)
	r.setupSec = append(r.setupSec, time.Since(start).Seconds())
	r.warmup()
	if err := r.timedSlices(); err != nil {
		return nil, nil, err
	}
	r.verifyPass()
	res := &result{Workload: w.name, Why: w.why, Callers: w.callers, Slices: sz.slices,
		SliceSec: sz.slice.Seconds(), Fingerprint: fingerprint(s.stream), HostSlowdown: r.hostSlowdown()}
	var spans []span
	if wantTrace {
		t := newTracer(r)
		if err := t.run(); err != nil {
			return nil, nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		res.PerLayer, res.Ladder, spans = t.values(), t.ladder(), t.spans
		r.traceAttempted, r.traceFailed = t.attempted, t.fail
		if fetches := t.site["searchengine.http"]; fetches != nil {
			r.harnessFetches = len(fetches.ns)
		}
	}
	if wantE2E {
		res.EndToEnd = r.endToEndValues()
	}
	res.Checks = r.verify()
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	res.Attempted = r.attempted() + r.connectsTried() + r.traceAttempted
	res.Failed = r.bad() + r.connectFails + r.traceFailed
	return res, spans, nil
}
