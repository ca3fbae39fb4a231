package enclave

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"xsearch/internal/raceflag"
)

func buildTestEnclave(t *testing.T, p *Platform, cfg Config) *Enclave {
	t.Helper()
	b := p.NewBuilder(cfg)
	if err := b.AddData([]byte("xsearch proxy code pages")); err != nil {
		t.Fatal(err)
	}
	b.SetSigner(Measurement{0xAA})
	if err := b.RegisterECall("echo", func(env Env, arg []byte) ([]byte, error) {
		return arg, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Every Config field is a knob of the simulated enclave; the ring depth
// follows AsyncWorkers. Raising this number is an explicit edit, like
// scripts/loc.budget.
func TestEnclaveConfigFieldBudget(t *testing.T) {
	const budget = 4
	if n := reflect.TypeOf(Config{}).NumField(); n > budget {
		t.Fatalf("enclave.Config has %d fields, budget %d", n, budget)
	}
}

func TestMeasurementDeterministic(t *testing.T) {
	p := NewPlatform()
	e1 := buildTestEnclave(t, p, Config{})
	e2 := buildTestEnclave(t, p, Config{})
	if e1.Measurement() != e2.Measurement() {
		t.Error("same pages must give same MRENCLAVE")
	}
	if e1.id == e2.id {
		t.Error("enclave IDs must differ")
	}
}

func TestMeasurementSensitivity(t *testing.T) {
	p := NewPlatform()
	mk := func(data string, ecall string) Measurement {
		b := p.NewBuilder(Config{})
		if err := b.AddData([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := b.RegisterECall(ecall, func(Env, []byte) ([]byte, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
		e, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := e.Measurement()
		e.Destroy()
		return m
	}
	base := mk("code", "request")
	if mk("code2", "request") == base {
		t.Error("different pages must change measurement")
	}
	if mk("code", "request2") == base {
		t.Error("different ecall interface must change measurement")
	}
}

func TestPageOrderAffectsMeasurement(t *testing.T) {
	p := NewPlatform()
	mk := func(pages ...[]byte) Measurement {
		b := p.NewBuilder(Config{})
		for _, pg := range pages {
			if err := b.AddPage(pg); err != nil {
				t.Fatal(err)
			}
		}
		e, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := e.Measurement()
		e.Destroy()
		return m
	}
	a, b := []byte("alpha"), []byte("beta")
	if mk(a, b) == mk(b, a) {
		t.Error("page order must affect MRENCLAVE")
	}
}

func TestECall(t *testing.T) {
	p := NewPlatform()
	e := buildTestEnclave(t, p, Config{})
	defer e.Destroy()
	out, err := e.ECall(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("hello")) {
		t.Errorf("echo returned %q", out)
	}
	if _, err := e.ECall(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownECall) {
		t.Errorf("unknown ecall error = %v", err)
	}
	if got := e.Stats().ECalls; got != 2 {
		// The unknown ecall is rejected before entering; only 1 counted.
		if got != 1 {
			t.Errorf("ECalls = %d", got)
		}
	}
}

// TestNoOpECallAllocatesNothing: the crossing itself — TCS, transitions,
// the Env handed to the handler — costs no allocation, so every one a
// request pays is its own work's.
func TestNoOpECallAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	e := buildTestEnclave(t, NewPlatform(), Config{})
	defer e.Destroy()
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { _, _ = e.ECall(ctx, "echo", nil) }); n != 0 {
		t.Errorf("a no-op ecall: %v allocs, want 0", n)
	}
}

func TestOCallRoundTrip(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{})
	if err := b.RegisterECall("fetch", func(env Env, arg []byte) ([]byte, error) {
		return env.OCall("network", arg, nil)
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if err := e.RegisterOCall("network", func(arg, _ []byte) ([]byte, error) {
		return append([]byte("response to "), arg...), nil
	}); err != nil {
		t.Fatal(err)
	}
	out, err := e.ECall(context.Background(), "fetch", []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "response to query" {
		t.Errorf("got %q", out)
	}
	st := e.Stats()
	if st.ECalls != 1 || st.OCalls != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnknownOCall(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{})
	if err := b.RegisterECall("f", func(env Env, arg []byte) ([]byte, error) {
		return env.OCall("missing", nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if _, err := e.ECall(context.Background(), "f", nil); !errors.Is(err, ErrUnknownOCall) {
		t.Errorf("err = %v", err)
	}
}

func TestDestroyedEnclaveRejectsCalls(t *testing.T) {
	p := NewPlatform()
	e := buildTestEnclave(t, p, Config{})
	e.Destroy()
	if _, err := e.ECall(context.Background(), "echo", nil); !errors.Is(err, ErrDestroyed) {
		t.Errorf("err = %v", err)
	}
	// Double destroy is safe.
	e.Destroy()
	if err := e.RegisterOCall("x", func(_, _ []byte) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrDestroyed) {
		t.Errorf("RegisterOCall err = %v", err)
	}
}

func TestEPCAccounting(t *testing.T) {
	p := NewPlatform(WithEPCLimit(1 << 20))
	used0, limit, _ := p.epc.Usage()
	if limit != 1<<20 {
		t.Fatalf("limit = %d", limit)
	}
	e := buildTestEnclave(t, p, Config{})
	used1, _, _ := p.epc.Usage()
	if used1 <= used0 {
		t.Error("static pages not charged to EPC")
	}
	e.Destroy()
	used2, _, _ := p.epc.Usage()
	if used2 != used0 {
		t.Errorf("EPC not released: %d != %d", used2, used0)
	}
}

func TestHeapAllocFreeAndPageFaults(t *testing.T) {
	p := NewPlatform(WithEPCLimit(64 * 1024))
	b := p.NewBuilder(Config{})
	var env Env
	if err := b.RegisterECall("grab", func(e Env, arg []byte) ([]byte, error) {
		env = e
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if _, err := e.ECall(context.Background(), "grab", nil); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(32 * 1024); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.HeapBytes != 32*1024 || st.PeakHeap != 32*1024 {
		t.Errorf("heap stats %+v", st)
	}
	// Exceed EPC: paging kicks in, faults counted.
	if err := env.Alloc(64 * 1024); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PageFaults == 0 {
		t.Error("expected page faults beyond EPC limit")
	}
	env.Free(96 * 1024)
	if st := e.Stats(); st.HeapBytes != 0 {
		t.Errorf("heap after free = %d", st.HeapBytes)
	}
	// Negative alloc rejected.
	if err := env.Alloc(-1); err == nil {
		t.Error("negative alloc must fail")
	}
}

func TestDisablePaging(t *testing.T) {
	p := NewPlatform(WithEPCLimit(8 * 1024))
	b := p.NewBuilder(Config{DisablePaging: true})
	var env Env
	if err := b.RegisterECall("grab", func(e Env, arg []byte) ([]byte, error) {
		env = e
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if _, err := e.ECall(context.Background(), "grab", nil); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(1 << 20); !errors.Is(err, ErrEPCExhausted) {
		t.Errorf("err = %v", err)
	}
}

func TestTCSLimitsConcurrency(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{TCSCount: 2})
	var mu sync.Mutex
	var inside, peak int
	block := make(chan struct{})
	if err := b.RegisterECall("busy", func(env Env, arg []byte) ([]byte, error) {
		mu.Lock()
		inside++
		if inside > peak {
			peak = inside
		}
		mu.Unlock()
		<-block
		mu.Lock()
		inside--
		mu.Unlock()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.ECall(context.Background(), "busy", nil)
		}()
	}
	// Third and fourth callers must block on TCS; give them time to try.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	if inside != 2 {
		t.Errorf("inside = %d, want 2 (TCS limit)", inside)
	}
	mu.Unlock()
	close(block)
	wg.Wait()
	if peak > 2 {
		t.Errorf("peak concurrency %d exceeded TCS count", peak)
	}
}

func TestTCSContextCancel(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{TCSCount: 1})
	block := make(chan struct{})
	if err := b.RegisterECall("busy", func(env Env, arg []byte) ([]byte, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	go func() { _, _ = e.ECall(context.Background(), "busy", nil) }()
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := e.ECall(ctx, "busy", nil); err == nil {
		t.Error("expected context deadline error waiting for TCS")
	}
	close(block)
}

// A call queued behind a busy TCS re-checks liveness once it holds the
// TCS: an enclave destroyed during the wait runs no handler for it.
func TestQueuedECallNeverEntersDestroyedEnclave(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{TCSCount: 1})
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	if err := b.RegisterECall("busy", func(env Env, arg []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = e.ECall(context.Background(), "busy", nil) }()
	<-entered // the only TCS is held inside
	queued := make(chan error, 1)
	go func() {
		_, err := e.ECall(context.Background(), "busy", nil)
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the second call queue for the TCS
	e.Destroy()
	close(release)
	if err := <-queued; !errors.Is(err, ErrDestroyed) {
		t.Errorf("queued call on a destroyed enclave: err = %v, want ErrDestroyed", err)
	}
	if len(entered) != 0 {
		t.Error("the queued call's handler ran inside a destroyed enclave")
	}
}

func TestBuilderErrors(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{})
	if err := b.AddPage(make([]byte, PageSize+1)); !errors.Is(err, ErrPageUnaligned) {
		t.Errorf("oversize page err = %v", err)
	}
	if err := b.RegisterECall("a", func(Env, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterECall("a", func(Env, []byte) ([]byte, error) { return nil, nil }); err == nil {
		t.Error("duplicate ecall should fail")
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if _, err := b.Build(); !errors.Is(err, ErrBuilderFinished) {
		t.Errorf("second Build err = %v", err)
	}
	if err := b.AddPage([]byte("x")); !errors.Is(err, ErrBuilderFinished) {
		t.Errorf("AddPage after Build err = %v", err)
	}
}

func TestSealingKeys(t *testing.T) {
	p1 := NewPlatform(WithFuseSeed([]byte("machine1")))
	p2 := NewPlatform(WithFuseSeed([]byte("machine2")))
	e1 := buildTestEnclave(t, p1, Config{})
	defer e1.Destroy()
	e2 := buildTestEnclave(t, p2, Config{})
	defer e2.Destroy()
	var kid [16]byte
	k1, err := p1.SealingKey(e1, PolicyMRENCLAVE, kid)
	if err != nil {
		t.Fatal(err)
	}
	// Same platform + same enclave identity => same key.
	k1b, err := p1.SealingKey(e1, PolicyMRENCLAVE, kid)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k1b {
		t.Error("sealing key not deterministic")
	}
	// Different platform => different key even for identical enclave.
	k2, err := p2.SealingKey(e2, PolicyMRENCLAVE, kid)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("sealing key must be platform-bound")
	}
	// Policy changes the key.
	k3, err := p1.SealingKey(e1, PolicyMRSIGNER, kid)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("policy must change sealing key")
	}
	if _, err := p1.SealingKey(e1, SealKeyPolicy(99), kid); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestTransitionCostPaid(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{TransitionCost: 200 * time.Microsecond})
	if err := b.RegisterECall("nop", func(Env, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	start := time.Now()
	if _, err := e.ECall(context.Background(), "nop", nil); err != nil {
		t.Fatal(err)
	}
	// EENTER + EEXIT = 2 transitions of 200us.
	if elapsed := time.Since(start); elapsed < 380*time.Microsecond {
		t.Errorf("ecall took %v, expected >= ~400us of transition cost", elapsed)
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	p := NewPlatform()
	e := buildTestEnclave(t, p, Config{})
	defer e.Destroy()
	var data [64]byte
	copy(data[:], "channel key binding")
	r := e.Report(data)
	if r.MREnclave != e.Measurement() || r.MRSigner != e.MRSigner() {
		t.Error("report identity mismatch")
	}
	back, err := UnmarshalReport(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip mismatch: %+v vs %+v", back, r)
	}
	if _, err := UnmarshalReport([]byte("short")); err == nil {
		t.Error("short report should fail to parse")
	}
}

func TestEnvRead(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{})
	if err := b.RegisterECall("rand", func(env Env, arg []byte) ([]byte, error) {
		buf := make([]byte, 16)
		if err := env.Read(buf); err != nil {
			return nil, err
		}
		return buf, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	a, err := e.ECall(context.Background(), "rand", nil)
	if err != nil {
		t.Fatal(err)
	}
	bz, err := e.ECall(context.Background(), "rand", nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, bz) {
		t.Error("randomness repeated")
	}
}
