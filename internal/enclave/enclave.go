// Package enclave is a software simulation of Intel SGX faithful enough to
// host the X-Search proxy logic: enclaves are built from measured pages,
// expose a narrow ecall interface, reach the outside world only through
// registered ocalls, draw from a platform-wide EPC budget (~90 MiB usable,
// §2.3 of the paper), and account every boundary transition — the paper's
// two main SGX performance costs. It deliberately does NOT provide real
// isolation (that needs hardware); it provides the same programming model,
// lifecycle, and cost accounting.
package enclave

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Measurement is an SGX-style 256-bit hash identity (MRENCLAVE/MRSIGNER).
type Measurement [32]byte

// String renders the first 8 bytes in hex, enough to eyeball identities.
func (m Measurement) String() string {
	return fmt.Sprintf("%x", m[:8])
}

// PageSize is the SGX page granularity.
const PageSize = 4096

// DefaultEPCLimit is the usable EPC the paper assumes (~90 MB of the 128 MB
// reserved region is available to enclaves).
const DefaultEPCLimit = 90 << 20

// Common error conditions.
var (
	ErrDestroyed       = errors.New("enclave: destroyed")
	ErrUnknownECall    = errors.New("enclave: unknown ecall")
	ErrUnknownOCall    = errors.New("enclave: unknown ocall")
	ErrEPCExhausted    = errors.New("enclave: EPC exhausted and paging disabled")
	ErrPageUnaligned   = errors.New("enclave: page data exceeds page size")
	ErrBuilderFinished = errors.New("enclave: builder already built")
)

// Platform models one SGX-capable machine: a CPU fuse key (root of sealing
// key derivation), a shared EPC, and a monotonically increasing enclave ID
// space. Enclaves on the same platform compete for EPC, as on real hardware.
type Platform struct {
	fuseKey [32]byte
	epc     *EPC
	nextID  atomic.Uint64
}

// PlatformOption configures a Platform.
type PlatformOption interface {
	apply(*platformOptions)
}

type platformOptions struct {
	epcLimit int64
	fuseSeed []byte
}

type epcLimitOption int64

func (o epcLimitOption) apply(p *platformOptions) { p.epcLimit = int64(o) }

// WithEPCLimit overrides the usable EPC size in bytes.
func WithEPCLimit(bytes int64) PlatformOption { return epcLimitOption(bytes) }

type fuseSeedOption []byte

func (o fuseSeedOption) apply(p *platformOptions) { p.fuseSeed = o }

// WithFuseSeed derives the CPU fuse key deterministically from seed, so
// sealed blobs survive process restarts in tests and experiments. Without
// it the fuse key is random per Platform, as on distinct physical CPUs.
func WithFuseSeed(seed []byte) PlatformOption { return fuseSeedOption(seed) }

// NewPlatform creates a simulated SGX machine.
func NewPlatform(opts ...PlatformOption) *Platform {
	var o platformOptions
	o.epcLimit = DefaultEPCLimit
	for _, opt := range opts {
		opt.apply(&o)
	}
	p := &Platform{epc: NewEPC(o.epcLimit)}
	if o.fuseSeed != nil {
		p.fuseKey = sha256.Sum256(append([]byte("sgx-fuse-key:"), o.fuseSeed...))
	} else {
		if _, err := rand.Read(p.fuseKey[:]); err != nil {
			// crypto/rand failing is unrecoverable for key material.
			panic(fmt.Sprintf("enclave: fuse key: %v", err))
		}
	}
	return p
}

// SealKeyPolicy selects which identity binds a sealing key, mirroring the
// SGX KEYREQUEST policy bits.
type SealKeyPolicy int

// Sealing policies. PolicyMRENCLAVE keys are specific to one exact enclave
// build; PolicyMRSIGNER keys are shared by all enclaves of one vendor.
const (
	PolicyMRENCLAVE SealKeyPolicy = iota + 1
	PolicyMRSIGNER
)

// SealingKey derives a 256-bit sealing key for enclave e under the given
// policy, bound to the platform fuse key as on real hardware: the same
// enclave on another platform derives a different key.
func (p *Platform) SealingKey(e *Enclave, policy SealKeyPolicy, keyID [16]byte) ([32]byte, error) {
	var ident Measurement
	switch policy {
	case PolicyMRENCLAVE:
		ident = e.Measurement()
	case PolicyMRSIGNER:
		ident = e.MRSigner()
	default:
		return [32]byte{}, fmt.Errorf("enclave: unknown seal policy %d", policy)
	}
	mac := hmac.New(sha256.New, p.fuseKey[:])
	var pol [4]byte
	binary.LittleEndian.PutUint32(pol[:], uint32(policy))
	mac.Write(pol[:])
	mac.Write(ident[:])
	mac.Write(keyID[:])
	var key [32]byte
	copy(key[:], mac.Sum(nil))
	return key, nil
}

// Builder constructs an enclave by loading measured pages, mirroring the
// SGX loading flow: pages are added in order, each extending the
// measurement; Build computes the final MRENCLAVE and transitions the
// enclave to the initialized state (EINIT).
type Builder struct {
	platform *Platform
	hash     [32]byte // running measurement (hash chain)
	pages    int
	signer   Measurement
	cfg      Config
	ecalls   map[string]ECallHandler
	built    bool
}

// Config bounds an enclave's runtime behaviour.
type Config struct {
	// TCSCount is the number of thread control structures: the maximum
	// number of concurrent ecalls. Zero means 8, a typical SDK default.
	TCSCount int
	// TransitionCost simulates the enclave boundary crossing cost
	// (EENTER/EEXIT, ~2-4 us on real hardware). Applied on each ecall
	// and ocall entry and exit when positive.
	TransitionCost time.Duration
	// DisablePaging controls what happens when the enclave heap exceeds
	// available EPC: if true, an allocation past the EPC fails with
	// ErrEPCExhausted; if false (SGX1's paging), it succeeds and counts
	// page faults.
	DisablePaging bool
	// AsyncWorkers, when positive, enables switchless-style async ocalls:
	// trusted code may submit ocalls to a shared-memory ring via
	// Env.OCallAsync (no transition cost, TCS released on ecall return)
	// and this many untrusted worker goroutines service them, posting
	// results to the completion ring (Enclave.Completions). Zero disables
	// the rings; OCallAsync then fails with ErrAsyncDisabled.
	AsyncWorkers int
}

// NewBuilder starts building an enclave on the platform.
func (p *Platform) NewBuilder(cfg Config) *Builder {
	return &Builder{
		platform: p,
		cfg:      cfg,
		ecalls:   make(map[string]ECallHandler),
	}
}

// AddPage loads one page of code or initial data, extending the enclave
// measurement with its content and position — exactly the MRENCLAVE
// construction (a hash chain over page adds).
func (b *Builder) AddPage(data []byte) error {
	if b.built {
		return ErrBuilderFinished
	}
	if len(data) > PageSize {
		return ErrPageUnaligned
	}
	h := sha256.New()
	h.Write(b.hash[:])
	var pos [8]byte
	binary.LittleEndian.PutUint64(pos[:], uint64(b.pages))
	h.Write(pos[:])
	var padded [PageSize]byte
	copy(padded[:], data)
	h.Write(padded[:])
	copy(b.hash[:], h.Sum(nil))
	b.pages++
	return nil
}

// AddData measures an arbitrarily sized blob by splitting it into pages.
func (b *Builder) AddData(data []byte) error {
	for off := 0; off < len(data); off += PageSize {
		end := off + PageSize
		if end > len(data) {
			end = len(data)
		}
		if err := b.AddPage(data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// SetSigner records the enclave vendor identity (MRSIGNER), the hash of the
// vendor's signing key in real SGX.
func (b *Builder) SetSigner(signer Measurement) {
	b.signer = signer
}

// RegisterECall declares an entry point before initialization. The handler
// name participates in the measurement: two enclaves with different
// interfaces measure differently.
func (b *Builder) RegisterECall(name string, h ECallHandler) error {
	if b.built {
		return ErrBuilderFinished
	}
	if _, dup := b.ecalls[name]; dup {
		return fmt.Errorf("enclave: duplicate ecall %q", name)
	}
	b.ecalls[name] = h
	return b.AddData([]byte("ecall:" + name))
}

// Build finalizes the measurement and returns an initialized enclave
// (combined EADD/EINIT). The enclave's static pages are charged to the EPC.
func (b *Builder) Build() (*Enclave, error) {
	if b.built {
		return nil, ErrBuilderFinished
	}
	b.built = true
	staticBytes := int64(b.pages) * PageSize
	if err := b.platform.epc.Alloc(staticBytes, b.cfg.DisablePaging); err != nil {
		return nil, fmt.Errorf("enclave: loading pages: %w", err)
	}
	tcs := b.cfg.TCSCount
	if tcs <= 0 {
		tcs = 8
	}
	e := &Enclave{
		id:          b.platform.nextID.Add(1),
		platform:    b.platform,
		measurement: b.hash,
		signer:      b.signer,
		cfg:         b.cfg,
		staticBytes: staticBytes,
		ecalls:      b.ecalls,
		ocalls:      make(map[string]OCallHandler),
		tcs:         make(chan struct{}, tcs),
	}
	e.env = env{e: e}
	for i := 0; i < tcs; i++ {
		e.tcs <- struct{}{}
	}
	if b.cfg.AsyncWorkers > 0 {
		e.startAsyncWorkers()
	}
	return e, nil
}

// ECallHandler runs inside the enclave. It receives an Env giving access to
// enclave services (ocalls, heap accounting, randomness) and the marshalled
// argument, returning the marshalled result.
type ECallHandler func(env Env, arg []byte) ([]byte, error)

// OCallHandler runs OUTSIDE the enclave, in the untrusted runtime. arg is
// untrusted memory holding the call's argument, and scratch is untrusted
// memory the handler may build its result in (nil on the async ring).
// Under OCall both belong to the edge again once the handler returns:
// its result is copied out before either is reused, and a handler that
// kept them reaches no enclave memory through them.
type OCallHandler func(arg, scratch []byte) ([]byte, error)

// Env is the view enclave code has of its runtime.
type Env interface {
	// OCall invokes a registered untrusted function, paying transition
	// costs both ways. It is the edge, with SGX's copy rule: arg is an
	// [in] buffer, copied to pooled untrusted memory before the handler
	// runs, and the result is an [out] buffer, copied after the handler
	// returns into out, which the caller lends: OCall returns out with
	// the result appended. The handler's scratch is as long as out's
	// spare capacity, so a result that fits there costs no allocation on
	// either side, and no handler ever holds a slice of enclave memory.
	OCall(name string, arg, out []byte) ([]byte, error)
	// OCallAsync submits an untrusted function call to the switchless
	// submission ring and returns a completion handle without paying any
	// transition cost; the result arrives on the enclave's completion
	// ring. arg is the descriptor written to the ring's shared memory:
	// the caller hands it over and does not touch it again. Fails with
	// ErrAsyncDisabled unless Config.AsyncWorkers > 0.
	OCallAsync(name string, arg []byte) (uint64, error)
	// Alloc charges n bytes to the enclave heap (EPC). Free releases.
	Alloc(n int64) error
	Free(n int64)
	// Read fills buf with cryptographically secure random bytes (RDRAND).
	Read(buf []byte) error
}

// Enclave is an initialized enclave instance.
type Enclave struct {
	id          uint64
	platform    *Platform
	measurement Measurement
	signer      Measurement
	cfg         Config
	staticBytes int64

	ecalls map[string]ECallHandler
	ocalls map[string]OCallHandler

	tcs chan struct{}
	// env is every activation's Env: it holds nothing per call, so one
	// per enclave keeps a crossing from allocating its own.
	env env

	// Switchless async ocall rings (nil when Config.AsyncWorkers == 0).
	asyncSub  chan asyncCall
	asyncDone chan AsyncCompletion
	asyncStop chan struct{}

	mu        sync.Mutex
	destroyed bool
	heapBytes int64
	peakHeap  int64

	ecallCount     atomic.Uint64
	ocallCount     atomic.Uint64
	asyncID        atomic.Uint64
	asyncSubmitted atomic.Uint64
	asyncCompleted atomic.Uint64
}

// Measurement returns MRENCLAVE.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// MRSigner returns MRSIGNER.
func (e *Enclave) MRSigner() Measurement { return e.signer }

// RegisterOCall installs an untrusted service the enclave may invoke.
// OCalls live outside the measurement: the untrusted runtime may register
// anything, and the enclave must treat results as hostile.
func (e *Enclave) RegisterOCall(name string, h OCallHandler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return ErrDestroyed
	}
	if _, dup := e.ocalls[name]; dup {
		return fmt.Errorf("enclave: duplicate ocall %q", name)
	}
	e.ocalls[name] = h
	return nil
}

// ECall enters the enclave through entry point name (EENTER), blocking for
// a TCS slot. ctx bounds the wait. Liveness is checked once the TCS is
// held, so a call that queued behind a busy TCS never enters an enclave
// destroyed during its wait.
func (e *Enclave) ECall(ctx context.Context, name string, arg []byte) ([]byte, error) {
	// An already-cancelled context never enters, even if a TCS is free.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("enclave: context: %w", err)
	}
	select {
	case <-e.tcs:
	case <-ctx.Done():
		return nil, fmt.Errorf("enclave: waiting for TCS: %w", ctx.Err())
	}
	defer func() { e.tcs <- struct{}{} }()
	e.mu.Lock()
	destroyed := e.destroyed
	h, ok := e.ecalls[name]
	e.mu.Unlock()
	if destroyed {
		return nil, ErrDestroyed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownECall, name)
	}

	e.ecallCount.Add(1)
	e.payTransition() // EENTER
	res, err := h(&e.env, arg)
	e.payTransition() // EEXIT
	return res, err
}

// payTransition burns the configured boundary-crossing cost. Busy-wait
// rather than sleep: real transition costs are microseconds, below timer
// granularity.
func (e *Enclave) payTransition() {
	if e.cfg.TransitionCost <= 0 {
		return
	}
	deadline := time.Now().Add(e.cfg.TransitionCost)
	for time.Now().Before(deadline) {
	}
}

// Destroyed reports whether the enclave has been torn down. The untrusted
// runtime uses it as a liveness probe: a destroyed enclave rejects every
// ecall with ErrDestroyed and never comes back.
func (e *Enclave) Destroyed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.destroyed
}

// Destroy tears the enclave down (EREMOVE), releasing its EPC.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return
	}
	e.destroyed = true
	e.stopAsync()
	e.platform.epc.Free(e.staticBytes + e.heapBytes)
	e.heapBytes = 0
}

// Stats is a snapshot of an enclave's resource accounting. The JSON tags
// serve the proxy's /stats and /metrics observability surface, which
// embeds this struct: resource aggregates only, nothing content-derived.
type Stats struct {
	ECalls      uint64 `json:"ecalls"`
	OCalls      uint64 `json:"ocalls"`
	HeapBytes   int64  `json:"heap_bytes"`
	PeakHeap    int64  `json:"peak_heap_bytes"`
	StaticBytes int64  `json:"static_bytes"`
	EPCUsed     int64  `json:"epc_used"`
	EPCLimit    int64  `json:"epc_limit"`
	PageFaults  uint64 `json:"page_faults"`
	// AsyncSubmitted/AsyncCompleted count switchless async ocalls posted
	// to the submission ring and serviced by the untrusted workers
	// (zero when Config.AsyncWorkers == 0). Async calls are included in
	// OCalls too; the gap between the two async counters is the in-flight
	// depth.
	AsyncSubmitted uint64 `json:"async_submitted"`
	AsyncCompleted uint64 `json:"async_completed"`
}

// Stats returns current accounting.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	heap, peak := e.heapBytes, e.peakHeap
	e.mu.Unlock()
	used, limit, faults := e.platform.epc.Usage()
	submitted, completed := e.asyncCounters()
	return Stats{
		ECalls:         e.ecallCount.Load(),
		OCalls:         e.ocallCount.Load(),
		HeapBytes:      heap,
		PeakHeap:       peak,
		StaticBytes:    e.staticBytes,
		EPCUsed:        used,
		EPCLimit:       limit,
		PageFaults:     faults,
		AsyncSubmitted: submitted,
		AsyncCompleted: completed,
	}
}

// env implements Env for every ecall activation of its enclave.
type env struct {
	e *Enclave
}

func (v *env) OCall(name string, arg, out []byte) ([]byte, error) {
	e := v.e
	e.mu.Lock()
	h, ok := e.ocalls[name]
	e.mu.Unlock()
	if !ok {
		return out, fmt.Errorf("%w: %q", ErrUnknownOCall, name)
	}
	e.ocallCount.Add(1)
	m := edgeMemory.Get().(*untrusted)
	m.arg = append(m.arg[:0], arg...) // [in]
	spare := cap(out) - len(out)
	if cap(m.res) < spare {
		m.res = make([]byte, spare)
	}
	e.payTransition() // exit to untrusted
	res, err := h(m.arg, m.res[:spare])
	e.payTransition() // re-enter
	// [out]: copied back before the scratch is reused.
	out = append(out, res...)
	edgeMemory.Put(m)
	return out, err
}

// untrusted is one synchronous ocall's host-side memory: the copy of its
// argument and the scratch its result is built in. Pooled, so an ocall in
// steady state allocates neither.
type untrusted struct{ arg, res []byte }

var edgeMemory = sync.Pool{New: func() any { return new(untrusted) }}

func (v *env) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative alloc %d", n)
	}
	e := v.e
	if err := e.platform.epc.Alloc(n, e.cfg.DisablePaging); err != nil {
		return err
	}
	e.mu.Lock()
	e.heapBytes += n
	if e.heapBytes > e.peakHeap {
		e.peakHeap = e.heapBytes
	}
	e.mu.Unlock()
	return nil
}

func (v *env) Free(n int64) {
	if n <= 0 {
		return
	}
	e := v.e
	e.mu.Lock()
	if n > e.heapBytes {
		n = e.heapBytes
	}
	e.heapBytes -= n
	e.mu.Unlock()
	e.platform.epc.Free(n)
}

func (v *env) Read(buf []byte) error {
	_, err := rand.Read(buf)
	return err
}

// EPC meters the platform's enclave page cache. Allocations beyond the
// limit either fail (paging disabled) or succeed while counting page
// faults, modelling the severe slowdown of EPC paging the paper describes.
type EPC struct {
	mu     sync.Mutex
	used   int64
	limit  int64
	faults uint64
}

// NewEPC creates a meter with the given byte limit.
func NewEPC(limit int64) *EPC {
	return &EPC{limit: limit}
}

// Alloc charges n bytes.
func (c *EPC) Alloc(n int64, failWhenFull bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used+n > c.limit {
		if failWhenFull {
			return ErrEPCExhausted
		}
		// Paged out: count a fault per page beyond the limit.
		over := c.used + n - c.limit
		c.faults += uint64((over + PageSize - 1) / PageSize)
	}
	c.used += n
	return nil
}

// Free releases n bytes.
func (c *EPC) Free(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.used -= n
	if c.used < 0 {
		c.used = 0
	}
}

// Usage returns (used, limit, faults).
func (c *EPC) Usage() (used, limit int64, faults uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, c.limit, c.faults
}
