package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"xsearch/internal/answer"
	"xsearch/internal/attestation"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/mux"
	"xsearch/internal/obs"
	"xsearch/internal/proxy"
	"xsearch/internal/searchengine"
	"xsearch/internal/securechannel"
	"xsearch/internal/textutil"
)

// span is one timed call into a module's public function. Rungs of the
// ladder are separate executions, so Parent names the enclosing rung and
// self time is computed on durations, not on wall-clock containment.
type span struct {
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// sample collects the durations of one timed call site.
type sample struct{ ns []int64 }

func (s *sample) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *sample) sum() float64 {
	var t int64
	for _, d := range s.ns {
		t += d
	}
	return float64(t)
}

func (s *sample) p50() float64 { return medianOf(s.ns) }

// tracer runs the traced pass with one caller. The ladder is the chain of
// nested public entry points - Broker.Search, Gateway.Secure (fleet only),
// Proxy.Secure, Proxy.ServeQuery, and the leaves re-composed from the
// public functions the proxy calls. Sealed records cannot be replayed and
// a replayed query would turn a miss into a hit, so each rung is a separate
// execution on its own queries with its own session. The rungs take turns
// in blocks of a few queries: the host's speed drifts by more than most
// rungs' self time, and a drift then hits every rung alike.
type tracer struct {
	r     *runner
	t0    time.Time
	spans []span
	req   int // identifier the spans of one ladder iteration share
	n     int // queries per rung

	site map[string]*sample // by span name
	// warmFill times the stores that fill the harness's cache and index
	// before the ladder: on a workload that only reads them afterwards it
	// is the one place their write side is seen.
	warmFill map[string]*sample
	leaves   []string // leaf names on this workload's path, in call order

	// The stack's entry points below the broker.
	gatewaySess, proxySess *session
	shard                  *proxy.Proxy
	// Harness-owned leaf instances, sized and warmed like the workload's.
	ob     *core.Obfuscator
	cache  *core.ResultCache
	index  *answer.Index
	client *searchengine.Client
	// refilter keeps a few filter inputs to count allocations on afterwards:
	// reading MemStats around each timed call would disturb the timing.
	refilter []filterInput

	plain, traced   time.Duration // untraced and traced Broker.Search blocks
	serveMallocs    uint64
	filterAllocs    float64
	fetched, kept   int
	reqSizes        []int64 // sealed-request plaintext bytes
	replySizes      []int64 // sealed-reply plaintext bytes
	micro           map[string]float64
	muxCallAllocs   float64
	attempted, fail int
}

type filterInput struct {
	oq      core.ObfuscatedQuery
	results []core.Result
}

// block is how many queries a rung runs before the next rung's turn.
const block = 25

func newTracer(r *runner) *tracer {
	// The workloads whose requests take tens of microseconds get ten times
	// the sample, or a rung would be a few milliseconds of measurement.
	n := r.sz.sample * r.s.w.traceScale
	return &tracer{r: r, t0: time.Now(), n: n, site: map[string]*sample{}, warmFill: map[string]*sample{},
		micro: map[string]float64{}, spans: make([]span, 0, 8*n)}
}

// timeInto times fn into the named sample of sites and returns when it
// started and ended.
func timeInto(sites map[string]*sample, name string, fn func()) (start, end time.Time) {
	start = time.Now()
	fn()
	end = time.Now()
	s := sites[name]
	if s == nil {
		s = &sample{}
		sites[name] = s
	}
	s.add(end.Sub(start))
	return start, end
}

// call times fn as one span of the current request.
func (t *tracer) call(name, parent string, fn func()) {
	start, end := timeInto(t.site, name, fn)
	t.spans = append(t.spans, span{t.r.s.w.name, t.req, name, parent,
		start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

// next draws the traced pass's next query from caller 0's slice of the
// stream, so no rung ever replays a query another rung has sent.
func (t *tracer) next() string {
	c := t.r.callers[0]
	q := t.r.s.stream[c.pos%len(t.r.s.stream)]
	c.pos += c.stride
	return q
}

func (t *tracer) check(err error, what string) bool {
	t.attempted++
	if err != nil {
		t.fail++
		if c := t.r.callers[0]; c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s: %w", what, err)
		}
		return false
	}
	return true
}

// perQuery is a rung's or leaf's total time divided by the queries per
// rung, in us: means add up along the ladder, medians do not.
func (t *tracer) perQuery(name string) float64 {
	s := t.site[name]
	if s == nil {
		return 0
	}
	return s.sum() / 1e3 / float64(t.n)
}

func (t *tracer) run() error {
	if err := t.openSessions(); err != nil {
		return err
	}
	if err := t.buildLeaves(); err != nil {
		return err
	}
	for done := 0; done < t.n; done += block {
		t.brokerBlock(done)
		if t.gatewaySess != nil {
			t.secureBlock(done, "fleet.secure", "broker.search", t.gatewaySess, t.r.s.gateway.Secure)
			t.secureBlock(done, "proxy.secure", "fleet.secure", t.proxySess, t.shard.Secure)
		} else {
			t.secureBlock(done, "proxy.secure", "broker.search", t.proxySess, t.shard.Secure)
		}
		t.serveBlock(done)
		t.leafBlock(done)
	}
	if len(t.refilter) > 0 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, in := range t.refilter {
			core.FilterResults(in.oq.Original(), in.oq.Fakes(), in.results)
		}
		runtime.ReadMemStats(&m1)
		t.filterAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(t.refilter))
	}
	// The engine called directly, without HTTP, on the same kind of
	// obfuscated query.
	t.req = t.n
	for i := 0; i < t.r.sz.sample/5+1; i++ {
		oq, _ := t.ob.Obfuscate(t.next())
		t.call("searchengine.search", "searchengine.http", func() {
			_, _ = t.r.s.engine.Search("harness", oq.Query(), t.r.s.w.count)
		})
	}
	return t.moduleCalls()
}

// brokerBlock runs an untraced and a traced block of Broker.Search; the
// ratio of their wall times is the tracing overhead. Which goes first
// alternates: the first block after the other rungs' turn finds the
// broker's connection and goroutines cold.
func (t *tracer) brokerBlock(done int) {
	c := t.r.callers[0]
	plain := func() {
		start := time.Now()
		for i := 0; i < block; i++ {
			c.search(t.r, false)
		}
		t.plain += time.Since(start)
	}
	if done/block%2 == 0 {
		plain()
	}
	start := time.Now()
	for i := 0; i < block; i++ {
		t.req = done + i
		t.call("broker.search", "", func() { c.search(t.r, false) })
	}
	t.traced += time.Since(start)
	if done/block%2 == 1 {
		plain()
	}
}

// session is a harness-made secure channel into the stack.
type session struct {
	id string
	ch *securechannel.Channel
}

type handshakeFunc func(ctx context.Context, offer json.RawMessage, nonce []byte) (*proxy.HandshakeResponse, error)

// openSession keys a channel the way Broker.Connect does, minus the quote
// verification the connect phase already exercises.
func openSession(ctx context.Context, handshake handshakeFunc) (*session, error) {
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		return nil, err
	}
	offer, err := hs.Offer().Marshal()
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	resp, err := handshake(ctx, offer, nonce)
	if err != nil {
		return nil, err
	}
	peer, err := securechannel.UnmarshalOffer(resp.Offer)
	if err != nil {
		return nil, err
	}
	ch, err := hs.Complete(peer)
	if err != nil {
		return nil, err
	}
	return &session{id: resp.Session, ch: ch}, nil
}

// openSessions keys one session per secure rung. On a fleet both live on
// the same shard, so Gateway.Secure and Proxy.Secure differ by the
// gateway alone.
func (t *tracer) openSessions() error {
	s := t.r.s
	t.shard = s.shards[0]
	g := s.gateway
	if g == nil {
		var err error
		t.proxySess, err = openSession(t.r.ctx, t.shard.Handshake)
		return err
	}
	var err error
	if t.gatewaySess, err = openSession(t.r.ctx, g.Handshake); err != nil {
		return err
	}
	idx, ok := g.ShardOf(t.gatewaySess.id)
	if !ok {
		return fmt.Errorf("gateway lost the harness session")
	}
	t.shard = s.shards[idx]
	t.micro["fleet.route_ns"] = perOp(func() { g.ShardOf(t.gatewaySess.id) }, 1000, 21)
	t.proxySess, err = openSession(t.r.ctx, t.shard.Handshake)
	return err
}

type secureFunc func(ctx context.Context, session string, record []byte) ([]byte, error)

// secureBlock times one secure entry point: seal outside the span, the
// call inside, open and decode outside.
func (t *tracer) secureBlock(done int, name, parent string, sess *session, secure secureFunc) {
	for i := 0; i < block; i++ {
		t.req = done + i
		plaintext, err := json.Marshal(map[string]any{"query": t.next(), "count": t.r.s.w.count})
		if !t.check(err, name) {
			continue
		}
		record, err := sess.ch.Seal(plaintext)
		if !t.check(err, name) {
			continue
		}
		var out []byte
		t.call(name, parent, func() { out, err = secure(t.r.ctx, sess.id, record) })
		if !t.check(err, name) {
			continue
		}
		reply, err := sess.ch.Open(out)
		if !t.check(err, name+" open") {
			continue
		}
		var decoded struct {
			Results []core.Result `json:"results"`
			Err     string        `json:"err"`
		}
		err = json.Unmarshal(reply, &decoded)
		if err == nil && decoded.Err != "" {
			err = fmt.Errorf("proxy error: %s", decoded.Err)
		}
		t.check(err, name+" reply")
		t.reqSizes = append(t.reqSizes, int64(len(plaintext)))
		t.replySizes = append(t.replySizes, int64(len(reply)))
	}
}

// serveBlock times Proxy.ServeQuery, the plain entry point under the
// secure one, and counts its allocations over the block.
func (t *tracer) serveBlock(done int) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < block; i++ {
		t.req = done + i
		q := t.next()
		var err error
		t.call("proxy.serve_query", "proxy.secure", func() { _, err = t.shard.ServeQuery(t.r.ctx, q) })
		t.check(err, "proxy.serve_query")
	}
	runtime.ReadMemStats(&m1)
	t.serveMallocs += m1.Mallocs - m0.Mallocs
}

func cacheKey(q string, count int) string { return fmt.Sprintf("%s\x1f%d", q, count) }

// buildLeaves makes the harness's own obfuscator, cache, index and engine
// client, sized like the workload's, and warms them as the proxy warmed
// its own: from the warm-up replies, storing a reply only when neither
// the cache nor the index answered the query.
func (t *tracer) buildLeaves() error {
	s, w := t.r.s, t.r.s.w
	cfg := w.proxyConfig(t.r.sz)
	history, err := core.NewHistory(cfg.HistoryCapacity)
	if err != nil {
		return err
	}
	if t.ob, err = core.NewObfuscator(history, cfg.K, core.WithSeed(1)); err != nil {
		return err
	}
	if cfg.CacheBytes > 0 {
		if t.cache, err = core.NewResultCache(cfg.CacheBytes, cfg.CacheTTL); err != nil {
			return err
		}
	}
	if cfg.IndexBytes > 0 {
		if t.index, err = answer.New(cfg.IndexBytes, cfg.IndexTTL, cfg.IndexMinScore); err != nil {
			return err
		}
	}
	for pos, res := range t.r.capture {
		q := s.stream[pos%len(s.stream)]
		history.Add(q)
		hit := len(res) == 0
		if !hit && t.cache != nil {
			_, hit = t.cache.Get(cacheKey(q, w.count), time.Now(), nil)
		}
		if !hit && t.index != nil {
			_, hit = t.index.Query(q, w.count, time.Now(), nil)
		}
		if hit {
			continue
		}
		if t.cache != nil {
			timeInto(t.warmFill, "core.cache_put", func() { t.cache.Put(cacheKey(q, w.count), res, time.Now(), nil, nil) })
		}
		if t.index != nil {
			timeInto(t.warmFill, "answer.insert", func() { t.index.Insert(res, time.Now(), nil, nil) })
		}
	}
	t.leaves = []string{"core.obfuscate"}
	if t.cache != nil {
		t.leaves = append(t.leaves, "core.cache_get")
	}
	if t.index != nil {
		t.leaves = append(t.leaves, "answer.query")
	}
	if !cfg.EchoMode {
		t.client = s.engineClient()
		t.leaves = append(t.leaves, "searchengine.http", "core.filter")
		if t.cache != nil {
			t.leaves = append(t.leaves, "core.cache_put")
		}
		if t.index != nil {
			t.leaves = append(t.leaves, "answer.insert")
		}
	}
	return nil
}

// leafBlock re-composes requests from the public functions the proxy
// calls, in the proxy's order.
func (t *tracer) leafBlock(done int) {
	const parent = "proxy.serve_query"
	w := t.r.s.w
	for i := 0; i < block; i++ {
		t.req = done + i
		q := t.next()
		var oq core.ObfuscatedQuery
		t.call("core.obfuscate", parent, func() { oq, _ = t.ob.Obfuscate(q) })
		if t.client == nil {
			continue // EchoMode: the request ends after obfuscation
		}
		hit := false
		if t.cache != nil {
			t.call("core.cache_get", parent, func() { _, hit = t.cache.Get(cacheKey(q, w.count), time.Now(), nil) })
		}
		if !hit && t.index != nil {
			t.call("answer.query", parent, func() { _, hit = t.index.Query(q, w.count, time.Now(), nil) })
		}
		if hit {
			continue
		}
		var raw []searchengine.Result
		var err error
		t.call("searchengine.http", parent, func() { raw, err = t.client.Search(t.r.ctx, oq.Query(), w.count) })
		if !t.check(err, "searchengine.http") {
			continue
		}
		results := make([]core.Result, len(raw))
		for j, r := range raw {
			results[j] = core.Result{URL: r.URL, Title: r.Title, Snippet: r.Snippet}
		}
		var filtered []core.Result
		t.call("core.filter", parent, func() {
			filtered = core.FilterResults(oq.Original(), oq.Fakes(), results)
			for j := range filtered {
				filtered[j].URL = core.StripRedirects(filtered[j].URL)
			}
		})
		if len(t.refilter) < 32 {
			t.refilter = append(t.refilter, filterInput{oq, results})
		}
		t.fetched += len(results)
		t.kept += len(filtered)
		if t.cache != nil {
			t.call("core.cache_put", parent, func() { t.cache.Put(cacheKey(q, w.count), filtered, time.Now(), nil, nil) })
		}
		if t.index != nil {
			t.call("answer.insert", parent, func() { t.index.Insert(filtered, time.Now(), nil, nil) })
		}
	}
}

// perOp times batches of fn and returns the median cost of one call in ns.
// It is for calls too short to time one by one.
func perOp(fn func(), batch, reps int) float64 {
	per := make([]float64, reps)
	for i := range per {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(batch)
	}
	return median(per)
}

// moduleCalls times the public functions whose cost depends only on
// payload size, at this workload's median request and reply sizes.
func (t *tracer) moduleCalls() error {
	reqSize, replySize := int(medianOf(t.reqSizes)), int(medianOf(t.replySizes))
	request, reply := make([]byte, reqSize), make([]byte, replySize)

	// securechannel: a keyed pair, then seal and open at both sizes.
	newPair := func() (*securechannel.Channel, *securechannel.Channel, error) {
		c, err := securechannel.NewHandshake(securechannel.RoleClient)
		if err != nil {
			return nil, nil, err
		}
		sv, err := securechannel.NewHandshake(securechannel.RoleServer)
		if err != nil {
			return nil, nil, err
		}
		cc, err := c.Complete(sv.Offer())
		if err != nil {
			return nil, nil, err
		}
		sc, err := sv.Complete(c.Offer())
		return cc, sc, err
	}
	var hsErr error
	t.micro["securechannel.handshake_us"] = perOp(func() {
		if _, _, err := newPair(); err != nil {
			hsErr = err
		}
	}, 1, 51) / 1e3
	if hsErr != nil {
		return hsErr
	}
	client, server, err := newPair()
	if err != nil {
		return err
	}
	// One request seal plus one reply seal per op, halved; open needs
	// fresh records in sequence, so records are sealed ahead of the timer.
	t.micro["securechannel.seal_ns"] = perOp(func() {
		_, _ = client.Seal(request)
		_, _ = client.Seal(reply)
	}, 200, 21) / 2
	const opens = 2000
	records := make([][]byte, 0, 2*opens)
	for i := 0; i < opens; i++ {
		a, _ := server.Seal(request)
		b, _ := server.Seal(reply)
		records = append(records, a, b)
	}
	start := time.Now()
	for _, rec := range records {
		if _, err := client.Open(rec); err != nil {
			return fmt.Errorf("securechannel open: %w", err)
		}
	}
	t.micro["securechannel.open_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(records))

	// enclave: a no-op ecall at free and at priced transitions; the free
	// one also feeds the attestation chain below.
	var free *enclave.Enclave
	for name, cost := range map[string]time.Duration{"enclave.ecall_ns": 0, "enclave.ecall_priced_ns": 3 * time.Microsecond} {
		b := enclave.NewPlatform().NewBuilder(enclave.Config{TransitionCost: cost})
		if err := b.RegisterECall("noop", func(enclave.Env, []byte) ([]byte, error) { return nil, nil }); err != nil {
			return err
		}
		e, err := b.Build()
		if err != nil {
			return err
		}
		defer e.Destroy()
		t.micro[name] = perOp(func() { _, _ = e.ECall(t.r.ctx, "noop", nil) }, 500, 21)
		if cost == 0 {
			free = e
		}
	}

	// attestation: quote, service verification, client verification.
	service, err := attestation.NewService()
	if err != nil {
		return err
	}
	qe, err := attestation.NewQuotingEnclave()
	if err != nil {
		return err
	}
	service.RegisterQE(qe)
	verifier := &attestation.Verifier{ServiceKey: service.PublicKey(),
		Policy: attestation.Policy{AcceptedMeasurements: []enclave.Measurement{free.Measurement()}}}
	data := attestation.BindKey([]byte("harness channel key"))
	nonce := []byte("0123456789abcdef")
	var attErr error
	t.micro["attestation.quote_verify_us"] = perOp(func() {
		vr, err := service.Verify(qe.Quote(free.Report(data)), nonce)
		if err == nil {
			_, err = verifier.Verify(vr, nonce, &data)
		}
		if err != nil {
			attErr = err
		}
	}, 1, 51) / 1e3
	if attErr != nil {
		return fmt.Errorf("attestation: %w", attErr)
	}

	// mux: the frame codec alone, then Session.Call against an echo
	// handler over loopback TCP, at the sealed body sizes.
	reqBody, _ := json.Marshal(proxy.SecureEnvelope{Session: "0123456789abcdef0123456789abcdef", Record: make([]byte, reqSize+28)})
	replyBody, _ := json.Marshal(proxy.SecureEnvelope{Record: make([]byte, replySize+28)})
	frame := make([]byte, 0, len(reqBody)+16)
	t.micro["mux.frame_codec_ns"] = perOp(func() {
		frame = mux.AppendFrame(frame[:0], mux.Frame{Type: mux.FrameData, Stream: 1, Payload: reqBody})
		_, _, _ = mux.DecodeFrame(frame, mux.MaxFramePayload)
	}, 1000, 21)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- mux.Serve(conn, func(context.Context, byte, []byte) ([]byte, error) { return replyBody, nil }, mux.Config{})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		return err
	}
	sess := mux.Client(conn, mux.Config{})
	var callErr error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 10 * t.r.sz.sample
	for i := 0; i < n; i++ {
		t.req = t.n + i
		t.call("mux.call", "", func() {
			if _, err := sess.Call(t.r.ctx, mux.KindSecure, reqBody); err != nil {
				callErr = err
			}
		})
	}
	runtime.ReadMemStats(&m1)
	t.muxCallAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	_ = sess.Close()
	_ = ln.Close()
	<-served
	if callErr != nil {
		return fmt.Errorf("mux call: %w", callErr)
	}

	// textutil: Terms on the corpus's median-length snippet shape, which
	// is what the filter and the index tokenise per result.
	snippet := "guitar chords acoustic lessons beginner songs tabs strings tuning amplifier free"
	for _, res := range t.r.capture {
		if len(res) > 0 {
			snippet = res[len(res)/2].Snippet
			break
		}
	}
	t.micro["textutil.terms_ns"] = perOp(func() { textutil.Terms(snippet) }, 200, 21)
	return nil
}

func (t *tracer) siteP50(name string, div float64) value {
	s := t.site[name]
	if s == nil {
		s = t.warmFill[name]
	}
	if s == nil {
		return value{}
	}
	return value{Value: s.p50() / div, N: len(s.ns)}
}

// values assembles every declared per-layer metric. A metric whose module
// is not on this workload's path reads 0.
func (t *tracer) values() map[string]value {
	r := t.r
	out := map[string]value{}
	for name, v := range t.micro {
		out[name] = value{Value: v}
	}
	l := t.ladder()
	self := map[string]float64{}
	for _, rung := range l.Rungs {
		self[rung.Name] = rung.SelfUS
	}
	const us, ns = 1e3, 1
	out["broker.search_us"] = t.siteP50("broker.search", us)
	out["broker.self_us"] = value{Value: self["broker.self"]}
	out["broker.connect_us"] = r.connectValue()
	out["mux.call_us"] = t.siteP50("mux.call", us)
	out["mux.call_allocs"] = value{Value: t.muxCallAllocs}
	out["fleet.secure_us"] = t.siteP50("fleet.secure", us)
	out["fleet.self_us"] = value{Value: self["fleet.self"]}
	out["proxy.secure_us"] = t.siteP50("proxy.secure", us)
	out["proxy.serve_query_us"] = t.siteP50("proxy.serve_query", us)
	out["proxy.channel_us"] = value{Value: self["proxy.channel"]}
	out["proxy.self_us"] = value{Value: self["proxy.self"]}
	out["proxy.serve_query_allocs"] = value{Value: float64(t.serveMallocs) / float64(t.n)}
	out["core.obfuscate_us"] = t.siteP50("core.obfuscate", us)
	out["core.filter_us"] = t.siteP50("core.filter", us)
	out["core.filter_allocs"] = value{Value: t.filterAllocs}
	if t.fetched > 0 {
		out["core.filter_kept_ratio"] = value{Value: float64(t.kept) / float64(t.fetched), N: t.fetched}
	}
	out["core.cache_get_ns"] = t.siteP50("core.cache_get", ns)
	out["core.cache_put_ns"] = t.siteP50("core.cache_put", ns)
	out["answer.query_us"] = t.siteP50("answer.query", us)
	out["answer.insert_us"] = t.siteP50("answer.insert", us)
	out["searchengine.search_us"] = t.siteP50("searchengine.search", us)
	out["searchengine.http_us"] = t.siteP50("searchengine.http", us)

	// Counters: deltas of the stack's own Stats() over the timed slices.
	d := r.totals
	queries := 0
	for _, sl := range r.slices {
		queries += sl.ok
	}
	per := func(n uint64) value { return value{Value: float64(n) / float64(max(queries, 1)), N: queries} }
	ratio := func(hit, miss uint64) value {
		if hit+miss == 0 {
			return value{}
		}
		return value{Value: float64(hit) / float64(hit+miss), N: int(hit + miss)}
	}
	out["proxy.ecalls_per_query"] = per(d.ecalls)
	out["proxy.ocalls_per_query"] = per(d.ocalls)
	out["proxy.batches_per_query"] = per(d.batches)
	out["proxy.pool_reuse_ratio"] = ratio(d.poolReuses, d.poolDials)
	out["core.cache_hit_ratio"] = ratio(d.cacheHits, d.cacheMisses)
	out["answer.hit_ratio"] = ratio(d.indexHits, d.indexMisses)
	if d.cacheHits+d.cacheMisses > 0 {
		out["proxy.local_hit_ratio"] = ratio(d.cacheHits+d.indexHits, d.cacheMisses-d.indexHits)
	} else {
		out["proxy.local_hit_ratio"] = out["answer.hit_ratio"]
	}
	out["proxy.errors"] = value{Value: float64(d.errors)}
	out["searchengine.reqs_per_query"] = per(uint64(r.engineReqs))
	last := r.lastStats
	fill := 0
	for _, st := range last {
		fill += st.HistoryLen
	}
	out["core.history_fill"] = value{Value: float64(fill) / float64(r.sz.history*len(last))}
	out["proxy.batch_occupancy_p50"] = value{Value: last[0].BatchOccupancyP50}
	stages := r.s.shards[0].StageSnapshots()
	for _, stage := range obs.StageNames {
		snap := stages[stage]
		out["proxy.stage_"+stage+"_us"] = value{Value: float64(snap.P50.Nanoseconds()) / 1e3, N: int(snap.Count)}
	}
	out["harness.host_slowdown"] = value{Value: r.hostSlowdown(), N: len(r.slices)}
	out["harness.calib_ns"] = value{Value: r.hostSlowdown() * calibNominalNS, N: len(r.slices)}
	out["harness.trace_overhead_pct"] = value{Value: (t.traced.Seconds()/t.plain.Seconds() - 1) * 100, N: t.n}
	if r.cpu > 0 {
		out["harness.gc_cpu_pct"] = value{Value: r.gcCPU / r.cpu * 100}
	}
	out["harness.peak_rss_mb"] = value{Value: peakRSSMB()}
	out["harness.warmup_s"] = value{Value: r.warmupSec, N: r.warmupCount()}

	return withUnits(perLayer, out)
}

// ladder is the chain of nested entry points with each rung's self time:
// its per-query mean minus that of the rung below. The self times add up
// to the mean of Broker.Search by construction; proxy.self is what the
// leaves fail to explain.
type ladder struct {
	TotalUS float64 `json:"broker_search_mean_us"`
	Rungs   []rung  `json:"rungs"`
}

type rung struct {
	Name   string  `json:"name"`
	SelfUS float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

func (t *tracer) ladder() *ladder {
	l := &ladder{TotalUS: t.perQuery("broker.search")}
	add := func(name string, self float64) {
		l.Rungs = append(l.Rungs, rung{name, self, self / l.TotalUS})
	}
	below := t.perQuery("proxy.secure")
	if t.gatewaySess != nil {
		add("broker.self", l.TotalUS-t.perQuery("fleet.secure"))
		add("fleet.self", t.perQuery("fleet.secure")-below)
	} else {
		add("broker.self", l.TotalUS-below)
	}
	add("proxy.channel", below-t.perQuery("proxy.serve_query"))
	leafSum := 0.0
	for _, name := range t.leaves {
		leafSum += t.perQuery(name)
	}
	add("proxy.self", t.perQuery("proxy.serve_query")-leafSum)
	for _, name := range t.leaves {
		add(name, t.perQuery(name))
	}
	return l
}
