package proxy

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"xsearch/internal/metrics"
	"xsearch/internal/netsim"
)

// sha256Sum is the hash primitive available to trusted code.
func sha256Sum(data []byte) [32]byte { return sha256.Sum256(data) }

// connTable is the untrusted runtime's socket table backing the
// sock_connect/send/recv/close ocalls. Descriptors are opaque handles the
// enclave cannot dereference.
type connTable struct {
	mu     sync.Mutex
	nextFD int64
	conns  map[int64]net.Conn
	// DialTimeout bounds connection establishment.
	dialTimeout time.Duration
	// link, when set, injects WAN delay on the proxy <-> engine path
	// (one traversal on connect, one per request write, one per
	// response's first read).
	link *netsim.Link
	// fetch is the flight-step handler state (nil unless the proxy runs
	// the async ocall pipeline).
	fetch *fetcher
}

func newConnTable(link *netsim.Link) *connTable {
	return &connTable{
		conns:       make(map[int64]net.Conn),
		dialTimeout: 10 * time.Second,
		link:        link,
	}
}

// delayedConn injects link latency around a request/response exchange.
type delayedConn struct {
	net.Conn
	link *netsim.Link

	mu          sync.Mutex
	pendingRead bool
}

func (d *delayedConn) Write(p []byte) (int, error) {
	d.link.Wait()
	d.mu.Lock()
	d.pendingRead = true
	d.mu.Unlock()
	return d.Conn.Write(p)
}

func (d *delayedConn) Read(p []byte) (int, error) {
	d.mu.Lock()
	pending := d.pendingRead
	d.pendingRead = false
	d.mu.Unlock()
	if pending {
		d.link.Wait()
	}
	return d.Conn.Read(p)
}

// register installs the socket ocall handlers on the enclave: the paper's
// four (sock_connect/send/recv/close) plus sock_check, the liveness probe
// backing the enclave's connection pool.
func (ct *connTable) handlers() map[string]func([]byte) ([]byte, error) {
	h := map[string]func([]byte) ([]byte, error){
		"sock_connect": ct.ocallConnect,
		"send":         ct.ocallSend,
		"recv":         ct.ocallRecv,
		"close":        ct.ocallClose,
		"sock_check":   ct.ocallCheck,
	}
	if ct.fetch != nil {
		// One socket I/O round of an engine flight, serviced by the
		// switchless worker goroutines instead of a blocking per-socket
		// ocall chain.
		h["tls_step"] = ct.fetch.ocallTLSStep
	}
	return h
}

// ocallConnect dials the host:port the argument's bytes spell, as a
// tls_step's dial does.
func (ct *connTable) ocallConnect(arg []byte) ([]byte, error) {
	conn, err := ct.dial(string(arg))
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	ct.mu.Lock()
	ct.nextFD++
	fd := ct.nextFD
	ct.conns[fd] = conn
	ct.mu.Unlock()
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(fd))
	return out, nil
}

// dial opens an engine connection on behalf of any of the ocalls,
// injecting the configured WAN link (connection establishment traverses
// it once; delayedConn charges the exchanges).
func (ct *connTable) dial(addr string) (net.Conn, error) {
	if ct.link != nil {
		ct.link.Wait()
	}
	conn, err := net.DialTimeout("tcp", addr, ct.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if ct.link != nil {
		conn = &delayedConn{Conn: conn, link: ct.link}
	}
	return conn, nil
}

func (ct *connTable) lookup(fd int64) (net.Conn, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	conn, ok := ct.conns[fd]
	if !ok {
		return nil, fmt.Errorf("proxy: unknown fd %d", fd)
	}
	return conn, nil
}

func (ct *connTable) ocallSend(arg []byte) ([]byte, error) {
	if len(arg) < 8 {
		return nil, fmt.Errorf("proxy: send arg too short")
	}
	fd := int64(binary.LittleEndian.Uint64(arg))
	conn, err := ct.lookup(fd)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(arg[8:]); err != nil {
		return nil, fmt.Errorf("proxy: write fd %d: %w", fd, err)
	}
	return nil, nil
}

func (ct *connTable) ocallRecv(arg []byte) ([]byte, error) {
	if len(arg) < 24 {
		return nil, fmt.Errorf("proxy: recv arg too short")
	}
	fd := int64(binary.LittleEndian.Uint64(arg))
	max := int(binary.LittleEndian.Uint64(arg[8:]))
	if max <= 0 || max > 1<<20 {
		max = 16 * 1024
	}
	conn, err := ct.lookup(fd)
	if err != nil {
		return nil, err
	}
	// Bytes 16:24 carry the remaining milliseconds of the enclave's
	// absolute fetch deadline; zero clears any previous one (pooled sockets
	// are reused across exchanges with different deadlines).
	if ms := int64(binary.LittleEndian.Uint64(arg[16:])); ms > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(time.Duration(ms) * time.Millisecond))
	} else {
		_ = conn.SetReadDeadline(time.Time{})
	}
	buf := make([]byte, max+1)
	n, err := conn.Read(buf[1:])
	switch {
	case err == io.EOF:
		buf[0] = 1 // EOF marker
		return buf[:1+n], nil
	case err != nil:
		return nil, fmt.Errorf("proxy: read fd %d: %w", fd, err)
	default:
		buf[0] = 0
		return buf[:1+n], nil
	}
}

func (ct *connTable) ocallClose(arg []byte) ([]byte, error) {
	if len(arg) < 8 {
		return nil, fmt.Errorf("proxy: close arg too short")
	}
	fd := int64(binary.LittleEndian.Uint64(arg))
	ct.mu.Lock()
	conn, ok := ct.conns[fd]
	delete(ct.conns, fd)
	ct.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("proxy: unknown fd %d", fd)
	}
	if err := conn.Close(); err != nil {
		return nil, fmt.Errorf("proxy: close fd %d: %w", fd, err)
	}
	return nil, nil
}

// ocallCheck reports whether a pooled socket is still usable: open, with
// no unread bytes waiting (data between requests means the previous HTTP
// exchange left the stream desynced, or the server sent an early close).
// Returns one byte: 1 = alive, 0 = dead. Never an error — the enclave
// treats any failure as "dead" anyway.
func (ct *connTable) ocallCheck(arg []byte) ([]byte, error) {
	if len(arg) < 8 {
		return nil, fmt.Errorf("proxy: check arg too short")
	}
	fd := int64(binary.LittleEndian.Uint64(arg))
	conn, err := ct.lookup(fd)
	if err != nil {
		return []byte{0}, nil
	}
	if probeConn(conn) {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

// probeConn checks socket liveness. The platform fast path (peekProbe,
// unix only) peeks the kernel buffer without consuming stream bytes:
// open-and-quiet means alive; EOF or buffered bytes (framing desync) mean
// dead. Elsewhere — and for wrappers without syscall access — it falls
// back to a 1-byte read under a short deadline; that read may consume a
// byte, which is safe only because a "dead" verdict closes the connection.
func probeConn(conn net.Conn) bool {
	raw := conn
	if d, ok := raw.(*delayedConn); ok {
		raw = d.Conn
	}
	if alive, handled := peekProbe(raw); handled {
		return alive
	}
	if err := conn.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		return false
	}
	defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	var buf [1]byte
	n, err := conn.Read(buf[:])
	if n > 0 {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// closeAll reaps any connections the enclave leaked, plus the flights'
// pooled and mid-step conns.
func (ct *connTable) closeAll() {
	ct.mu.Lock()
	for fd, conn := range ct.conns {
		_ = conn.Close()
		delete(ct.conns, fd)
	}
	ct.mu.Unlock()
	if ct.fetch != nil {
		ct.fetch.closeAll()
	}
}

// --- engine flight steps (the "tls_step" ocall) ---

// fetcher is the untrusted end of the async engine stage. A fetch is a
// trusted flight (tlsasync.go) — pooled sessions, HTTP framing and, for a
// pinned-root upstream, the whole TLS state machine live inside the
// enclave — and everything it needs from the host is one "tls_step" ocall
// per socket I/O round, serviced here by the switchless worker goroutines:
// dial, write, read at most tlsStepReadMax, close. It also owns flight
// cancellation (closing a hedge loser's socket) and the per-upstream
// fetch-latency histograms that drive the p95-derived hedge delay.
type fetcher struct {
	ct *connTable

	mu     sync.Mutex
	hist   map[string]*metrics.Histogram
	closed bool
	// conns maps the enclave-minted conn handles to their sockets (a conn
	// outlives one flight when its session is pooled trusted-side);
	// byToken binds each live flight token to its current conn so
	// cancelFetch can reach the socket mid-step; cancelled tombstones
	// cancelled tokens so a step already in the ring aborts on arrival.
	// Token entries are dropped on the terminal resume's DoneToken
	// (endFlight).
	conns     map[uint64]net.Conn
	byToken   map[uint64]uint64
	cancelled map[uint64]bool
}

func newFetcher(ct *connTable) *fetcher {
	return &fetcher{
		ct:        ct,
		hist:      make(map[string]*metrics.Histogram),
		conns:     make(map[uint64]net.Conn),
		byToken:   make(map[uint64]uint64),
		cancelled: make(map[uint64]bool),
	}
}

// cancelFetch aborts an in-flight exchange: the hedge winner landed and
// this token lost the race, or its caller gave up. The token is tombstoned
// — a step already sitting in the ring cancels on arrival — and its
// current conn closed to unblock a handler mid-read; the completion comes
// back marked Cancelled. The tombstone set is size-bounded best-effort
// (terminal resumes clear their own entries via endFlight; closeAll is the
// correctness net for the rest).
func (f *fetcher) cancelFetch(token uint64) {
	f.mu.Lock()
	var conn net.Conn
	if id, live := f.byToken[token]; live {
		conn = f.conns[id]
		delete(f.conns, id)
		delete(f.byToken, token)
	}
	if len(f.cancelled) > 1024 {
		clear(f.cancelled)
	}
	f.cancelled[token] = true
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// endFlight drops a flight token's untrusted state once its trusted state
// machine reached a terminal outcome (resumeReply.DoneToken). The conn
// itself may live on — a pooled session keeps its socket registered under
// its conn handle.
func (f *fetcher) endFlight(token uint64) {
	f.mu.Lock()
	delete(f.byToken, token)
	delete(f.cancelled, token)
	f.mu.Unlock()
}

// record adds one successful exchange's latency to host's histogram.
func (f *fetcher) record(host string, d time.Duration) {
	f.mu.Lock()
	h := f.hist[host]
	if h == nil {
		h = metrics.NewHistogram()
		f.hist[host] = h
	}
	f.mu.Unlock()
	h.Record(d)
}

// latencyFor returns host's fetch-latency histogram, nil before the first
// successful exchange.
func (f *fetcher) latencyFor(host string) *metrics.Histogram {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hist[host]
}

// closeAll closes every registered conn, pooled or mid-step
// (shutdown/crash); steps arriving afterwards report cancellation.
func (f *fetcher) closeAll() {
	f.mu.Lock()
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for _, c := range f.conns {
		conns = append(conns, c)
	}
	clear(f.conns)
	clear(f.byToken)
	clear(f.cancelled)
	f.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// stepBufs recycles the handler's read buffers: a step reads into one and
// its reply frame copies out only the bytes that arrived.
var stepBufs = sync.Pool{New: func() any { return new([tlsStepReadMax]byte) }}

// ocallTLSStep services one I/O round of a trusted flight. It never fails
// at the ocall layer for a live flight: transport errors travel inside the
// reply so the token always reaches the enclave. A step with Token 0 is a
// pure close batch and returns no payload at all — the resume loop skips
// empty completions.
func (f *fetcher) ocallTLSStep(arg []byte) ([]byte, error) {
	var sa tlsStepArg
	if err := sa.decode(arg); err != nil {
		return nil, fmt.Errorf("proxy: tls step arg: %w", err)
	}
	f.closeConns(sa.Close)
	if sa.Token == 0 {
		return nil, nil
	}
	buf := stepBufs.Get().(*[tlsStepReadMax]byte)
	reply := f.step(&sa, buf[:])
	reply.Token = sa.Token
	out := reply.encode()
	stepBufs.Put(buf)
	return out, nil
}

// step runs one live step; Data of its reply aliases buf.
func (f *fetcher) step(sa *tlsStepArg, buf []byte) tlsStepReply {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return tlsStepReply{Cancelled: true}
	}
	if f.cancelled[sa.Token] {
		// Tombstoned before the step ran: close whatever conn it names
		// and report the cancellation instead of doing I/O for a flight
		// the enclave already wrote off.
		f.mu.Unlock()
		if !sa.Dial && sa.ConnID != 0 {
			f.closeConns([]uint64{sa.ConnID})
		}
		return tlsStepReply{Cancelled: true}
	}
	f.mu.Unlock()

	var conn net.Conn
	if sa.Dial {
		c, err := f.ct.dial(sa.Host)
		if err != nil {
			return tlsStepReply{Err: err.Error()}
		}
		conn = c
		f.mu.Lock()
		if f.closed || f.cancelled[sa.Token] {
			f.mu.Unlock()
			_ = conn.Close()
			return tlsStepReply{Cancelled: true}
		}
		f.conns[sa.ConnID] = conn
		f.byToken[sa.Token] = sa.ConnID
		f.mu.Unlock()
	} else {
		f.mu.Lock()
		conn = f.conns[sa.ConnID]
		if conn != nil {
			f.byToken[sa.Token] = sa.ConnID
		}
		f.mu.Unlock()
		if conn == nil {
			return tlsStepReply{Err: fmt.Sprintf("unknown conn %d", sa.ConnID)}
		}
	}

	if len(sa.Send) > 0 {
		if _, err := conn.Write(sa.Send); err != nil {
			f.dropConn(sa.Token, sa.ConnID)
			return f.outcome(sa.Token, fmt.Sprintf("send: %v", err))
		}
	}
	if !sa.Read {
		return tlsStepReply{}
	}
	// The deadline is the remaining slice of the flight's absolute fetch
	// budget, re-armed (or cleared) every step — pooled sockets carry no
	// stale deadline into the next exchange.
	if sa.TimeoutMS > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(time.Duration(sa.TimeoutMS) * time.Millisecond))
	} else {
		_ = conn.SetReadDeadline(time.Time{})
	}
	n, err := conn.Read(buf)
	switch {
	case err == io.EOF:
		f.dropConn(sa.Token, sa.ConnID)
		return tlsStepReply{Data: buf[:n], EOF: true}
	case err != nil:
		f.dropConn(sa.Token, sa.ConnID)
		return f.outcome(sa.Token, fmt.Sprintf("read: %v", err))
	default:
		return tlsStepReply{Data: buf[:n]}
	}
}

// closeConns closes and deregisters a batch of conns.
func (f *fetcher) closeConns(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	var conns []net.Conn
	f.mu.Lock()
	for _, id := range ids {
		if c, ok := f.conns[id]; ok {
			conns = append(conns, c)
			delete(f.conns, id)
		}
	}
	f.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// dropConn closes a conn that just failed under its flight and drops the
// token binding (the enclave-side flight marks it dead too).
func (f *fetcher) dropConn(token, connID uint64) {
	var conn net.Conn
	f.mu.Lock()
	if c, ok := f.conns[connID]; ok {
		conn = c
		delete(f.conns, connID)
	}
	delete(f.byToken, token)
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// outcome folds a step failure into a reply, reporting cancellation when
// the failure was self-inflicted by cancelFetch or closeAll closing the
// socket.
func (f *fetcher) outcome(token uint64, errstr string) tlsStepReply {
	f.mu.Lock()
	cancelled := f.closed || f.cancelled[token]
	f.mu.Unlock()
	if cancelled {
		return tlsStepReply{Cancelled: true}
	}
	return tlsStepReply{Err: errstr}
}
