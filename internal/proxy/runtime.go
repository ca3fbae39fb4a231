package proxy

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"xsearch/internal/metrics"
	"xsearch/internal/netsim"
	"xsearch/internal/obs"
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
	// fetch is the async-fetch worker state (nil unless the proxy runs
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

// enableFetcher attaches the async-fetch worker state (untrusted keep-alive
// pools, cancellation registry, per-upstream latency histograms) used by
// the "fetch" ocall the pipeline submits to. timeout, when positive, bounds
// each exchange's read phase (Config.FetchTimeout). stages, when non-nil,
// receives the fetch-stage wall time of each successful exchange.
func (ct *connTable) enableFetcher(maxIdle int, idleTTL, timeout time.Duration, stages *obs.Stages) {
	ct.fetch = newFetcher(ct, maxIdle, idleTTL, timeout)
	ct.fetch.stages = stages
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
		// The pipeline's composite exchange, serviced by the switchless
		// worker goroutines instead of a blocking per-socket ocall chain.
		h["fetch"] = ct.fetch.ocallFetch
		// One ciphertext I/O round of an in-enclave TLS flight.
		h["tls_step"] = ct.fetch.ocallTLSStep
	}
	return h
}

func (ct *connTable) ocallConnect(arg []byte) ([]byte, error) {
	var req connectArg
	if err := json.Unmarshal(arg, &req); err != nil {
		return nil, fmt.Errorf("proxy: connect arg: %w", err)
	}
	conn, err := ct.dial(net.JoinHostPort(req.Host, fmt.Sprintf("%d", req.Port)))
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

// closeAll reaps any connections the enclave leaked, plus the async
// fetcher's pools and in-flight exchanges.
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

// --- async fetch worker (the "fetch" ocall) ---

// fetcher performs whole engine exchanges for the async pipeline: each
// "fetch" ocall dials (or reuses) an untrusted keep-alive connection,
// writes one GET, reads one framed HTTP response, and returns it as a
// fetchReply for the resume ecall to validate. It runs entirely in the
// untrusted runtime — which is exactly where the sync path's socket bytes
// already flow — and the enclave re-checks every cap on the way back in.
// It also owns hedge-loser cancellation (closing the loser's socket) and
// the per-upstream fetch-latency histograms that drive the p95-derived
// hedge delay.
type fetcher struct {
	ct      *connTable
	maxIdle int
	idleTTL time.Duration
	// timeout, when positive, is the per-exchange read deadline: an
	// upstream that accepts but never responds fails the fetch after this
	// long instead of pinning the worker until hedge/abandon/shutdown
	// cancels it. The resulting reply carries an error, so the enclave's
	// resume path counts it against the upstream's breaker like any other
	// transport failure.
	timeout time.Duration

	// stages, when non-nil, receives each successful exchange's wall time
	// under the fetch stage (observability layer; nil-safe no-op off).
	stages *obs.Stages

	mu       sync.Mutex
	idle     map[string][]idleFetchConn // per host, oldest first
	inflight map[uint64]*fetchOp
	hist     map[string]*metrics.Histogram
	closed   bool

	// In-enclave TLS flight state. tlsConns maps the enclave-minted conn
	// handles to their ciphertext sockets (a conn outlives one flight
	// when its TLS session is pooled trusted-side); tlsByToken binds each
	// live flight token to its current conn so cancelFetch can reach the
	// socket mid-step; tlsCancelled tombstones cancelled tokens so a step
	// already in the ring aborts on arrival. Token entries are dropped on
	// the terminal resume's DoneToken (endTLS).
	tlsConns     map[uint64]net.Conn
	tlsByToken   map[uint64]uint64
	tlsCancelled map[uint64]bool
}

type idleFetchConn struct {
	conn  net.Conn
	since time.Time
}

// fetchOp is one in-flight exchange, registered so cancelFetch can reach
// its socket.
type fetchOp struct {
	cancelled bool
	conn      net.Conn
}

func newFetcher(ct *connTable, maxIdle int, idleTTL, timeout time.Duration) *fetcher {
	return &fetcher{
		ct:           ct,
		maxIdle:      maxIdle,
		idleTTL:      idleTTL,
		timeout:      timeout,
		idle:         make(map[string][]idleFetchConn),
		inflight:     make(map[uint64]*fetchOp),
		hist:         make(map[string]*metrics.Histogram),
		tlsConns:     make(map[uint64]net.Conn),
		tlsByToken:   make(map[uint64]uint64),
		tlsCancelled: make(map[uint64]bool),
	}
}

// ocallFetch services one composite exchange. It never fails at the ocall
// layer: transport errors travel inside the fetchReply so the token always
// reaches the enclave.
func (f *fetcher) ocallFetch(arg []byte) ([]byte, error) {
	var fa fetchArg
	if err := json.Unmarshal(arg, &fa); err != nil {
		return nil, fmt.Errorf("proxy: fetch arg: %w", err)
	}
	reply := f.do(&fa)
	reply.Token = fa.Token
	return json.Marshal(reply)
}

func (f *fetcher) do(fa *fetchArg) fetchReply {
	start := time.Now()
	op := &fetchOp{}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fetchReply{Cancelled: true}
	}
	f.inflight[fa.Token] = op
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.inflight, fa.Token)
		f.mu.Unlock()
	}()

	for attempt := 0; ; attempt++ {
		// Retries force a fresh dial, as the sync path does: a second
		// pooled conn from the same restarted engine would be just as
		// stale and burn the only retry.
		var conn net.Conn
		var reused bool
		if attempt == 0 {
			conn, reused = f.checkout(fa.Host)
		}
		if conn == nil {
			c, err := f.ct.dial(fa.Host)
			if err != nil {
				return f.outcome(op, err.Error())
			}
			conn = c
		}
		f.mu.Lock()
		if op.cancelled {
			f.mu.Unlock()
			_ = conn.Close()
			return fetchReply{Cancelled: true}
		}
		op.conn = conn
		f.mu.Unlock()

		if err := writeEngineRequest(conn, fa.Host, fa.Path, fa.KeepAlive); err != nil {
			_ = conn.Close()
			if reused && attempt == 0 && !f.isCancelled(op) {
				continue // stale pooled conn: retry once on a fresh dial
			}
			return f.outcome(op, fmt.Sprintf("send request: %v", err))
		}
		if f.timeout > 0 {
			// One absolute deadline covers the whole framed response: an
			// upstream that accepted but never answers (or stalls mid-body)
			// fails here instead of pinning this worker indefinitely.
			_ = conn.SetReadDeadline(time.Now().Add(f.timeout))
		}
		br := bufio.NewReader(conn)
		body, status, keepAlive, err := readHTTPResponse(br)
		if err != nil {
			_ = conn.Close()
			// A deadline expiry is the upstream being slow, not the pooled
			// stream being stale — a fresh dial would wait the whole
			// timeout again, doubling the worst case, so only non-timeout
			// failures on a reused conn earn the retry.
			var ne net.Error
			timedOut := errors.As(err, &ne) && ne.Timeout()
			if reused && attempt == 0 && !timedOut && !f.isCancelled(op) {
				continue
			}
			return f.outcome(op, fmt.Sprintf("read response: %v", err))
		}
		if f.timeout > 0 {
			_ = conn.SetReadDeadline(time.Time{})
		}
		f.mu.Lock()
		cancelled := op.cancelled
		op.conn = nil
		f.mu.Unlock()
		// Pool only a stream sitting exactly at a response boundary (the
		// same smuggling guard the in-enclave pool applies).
		if fa.KeepAlive && keepAlive && br.Buffered() == 0 && !cancelled {
			f.checkin(fa.Host, conn)
		} else {
			_ = conn.Close()
		}
		if cancelled {
			return fetchReply{Cancelled: true}
		}
		f.record(fa.Host, time.Since(start))
		f.stages.Since(obs.StageFetch, start)
		return fetchReply{Status: status, Body: body}
	}
}

// outcome folds a transport failure into a reply, reporting cancellation
// instead when the failure was self-inflicted by cancelFetch closing the
// socket mid-exchange.
func (f *fetcher) outcome(op *fetchOp, errstr string) fetchReply {
	f.mu.Lock()
	cancelled := op.cancelled
	op.conn = nil
	f.mu.Unlock()
	if cancelled {
		return fetchReply{Cancelled: true}
	}
	return fetchReply{Err: errstr}
}

func (f *fetcher) isCancelled(op *fetchOp) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return op.cancelled
}

// cancelFetch aborts an in-flight exchange: the hedge winner landed and
// this token lost the race. Closing the socket unblocks the worker; its
// completion comes back marked Cancelled.
func (f *fetcher) cancelFetch(token uint64) {
	f.mu.Lock()
	op, ok := f.inflight[token]
	var conn net.Conn
	if ok {
		op.cancelled = true
		conn = op.conn
	}
	// TLS flights: tombstone the token — a step already sitting in the
	// ring cancels on arrival — and close its current ciphertext conn to
	// unblock a handler mid-read. The tombstone set is size-bounded
	// best-effort (terminal resumes clear their own entries via endTLS;
	// closeAll is the correctness net for the rest).
	var tlsConn net.Conn
	if id, live := f.tlsByToken[token]; live {
		tlsConn = f.tlsConns[id]
		delete(f.tlsConns, id)
		delete(f.tlsByToken, token)
	}
	if len(f.tlsCancelled) > 1024 {
		clear(f.tlsCancelled)
	}
	f.tlsCancelled[token] = true
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if tlsConn != nil {
		_ = tlsConn.Close()
	}
}

// endTLS drops a TLS flight token's untrusted state once its trusted
// state machine reached a terminal outcome (resumeReply.DoneToken). The
// conn itself may live on — a pooled TLS session keeps its ciphertext
// socket registered under its conn handle.
func (f *fetcher) endTLS(token uint64) {
	if token == 0 {
		return
	}
	f.mu.Lock()
	delete(f.tlsByToken, token)
	delete(f.tlsCancelled, token)
	f.mu.Unlock()
}

// checkout pops the freshest healthy pooled connection for host, evicting
// idle-expired and dead ones.
func (f *fetcher) checkout(host string) (net.Conn, bool) {
	now := time.Now()
	for {
		f.mu.Lock()
		list := f.idle[host]
		if len(list) == 0 {
			f.mu.Unlock()
			return nil, false
		}
		// Expire from the oldest end first.
		if f.idleTTL > 0 && now.Sub(list[0].since) > f.idleTTL {
			victim := list[0].conn
			f.idle[host] = list[1:]
			f.mu.Unlock()
			_ = victim.Close()
			continue
		}
		cand := list[len(list)-1].conn
		f.idle[host] = list[:len(list)-1]
		f.mu.Unlock()
		if !probeConn(cand) {
			_ = cand.Close()
			continue
		}
		return cand, true
	}
}

// checkin returns a connection to host's pool, evicting the oldest when
// full.
func (f *fetcher) checkin(host string, conn net.Conn) {
	var victim net.Conn
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		_ = conn.Close()
		return
	}
	list := f.idle[host]
	if f.maxIdle > 0 && len(list) >= f.maxIdle {
		victim = list[0].conn
		list = list[1:]
	}
	f.idle[host] = append(list, idleFetchConn{conn: conn, since: time.Now()})
	f.mu.Unlock()
	if victim != nil {
		_ = victim.Close()
	}
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

// closeAll closes pooled and in-flight connections (shutdown/crash).
func (f *fetcher) closeAll() {
	f.mu.Lock()
	f.closed = true
	var conns []net.Conn
	for host, list := range f.idle {
		for _, ic := range list {
			conns = append(conns, ic.conn)
		}
		delete(f.idle, host)
	}
	for _, op := range f.inflight {
		op.cancelled = true
		if op.conn != nil {
			conns = append(conns, op.conn)
		}
	}
	for id, c := range f.tlsConns {
		conns = append(conns, c)
		delete(f.tlsConns, id)
	}
	clear(f.tlsByToken)
	clear(f.tlsCancelled)
	f.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// --- in-enclave TLS ciphertext steps (the "tls_step" ocall) ---

// ocallTLSStep services one ciphertext round of a trusted TLS flight.
// Like ocallFetch it never fails at the ocall layer for a live flight:
// transport errors travel inside the reply so the token always reaches
// the enclave. A step with Token 0 is a pure close batch and returns no
// payload at all — the resume loop skips empty completions.
func (f *fetcher) ocallTLSStep(arg []byte) ([]byte, error) {
	var sa tlsStepArg
	if err := json.Unmarshal(arg, &sa); err != nil {
		return nil, fmt.Errorf("proxy: tls step arg: %w", err)
	}
	if sa.Token == 0 {
		f.closeTLSConns(sa.Close)
		return nil, nil
	}
	reply := f.tlsStep(&sa)
	reply.Token = sa.Token
	return json.Marshal(reply)
}

func (f *fetcher) tlsStep(sa *tlsStepArg) tlsStepReply {
	f.closeTLSConns(sa.Close)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return tlsStepReply{Cancelled: true}
	}
	if f.tlsCancelled[sa.Token] {
		// Tombstoned before the step ran: close whatever conn it names
		// and report the cancellation instead of doing I/O for a flight
		// the enclave already wrote off.
		f.mu.Unlock()
		if !sa.Dial && sa.ConnID != 0 {
			f.closeTLSConns([]uint64{sa.ConnID})
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
		if f.closed || f.tlsCancelled[sa.Token] {
			f.mu.Unlock()
			_ = conn.Close()
			return tlsStepReply{Cancelled: true}
		}
		f.tlsConns[sa.ConnID] = conn
		f.tlsByToken[sa.Token] = sa.ConnID
		f.mu.Unlock()
	} else {
		f.mu.Lock()
		conn = f.tlsConns[sa.ConnID]
		if conn != nil {
			f.tlsByToken[sa.Token] = sa.ConnID
		}
		f.mu.Unlock()
		if conn == nil {
			return tlsStepReply{Err: fmt.Sprintf("unknown tls conn %d", sa.ConnID)}
		}
	}

	if len(sa.Send) > 0 {
		if _, err := conn.Write(sa.Send); err != nil {
			f.dropTLSConn(sa.Token, sa.ConnID)
			return f.tlsOutcome(sa.Token, fmt.Sprintf("send: %v", err))
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
	buf := make([]byte, tlsStepReadMax)
	n, err := conn.Read(buf)
	switch {
	case err == io.EOF:
		f.dropTLSConn(sa.Token, sa.ConnID)
		return tlsStepReply{Data: buf[:n], EOF: true}
	case err != nil:
		f.dropTLSConn(sa.Token, sa.ConnID)
		return f.tlsOutcome(sa.Token, fmt.Sprintf("read: %v", err))
	default:
		return tlsStepReply{Data: buf[:n]}
	}
}

// closeTLSConns closes and deregisters a batch of ciphertext conns.
func (f *fetcher) closeTLSConns(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	var conns []net.Conn
	f.mu.Lock()
	for _, id := range ids {
		if c, ok := f.tlsConns[id]; ok {
			conns = append(conns, c)
			delete(f.tlsConns, id)
		}
	}
	f.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// dropTLSConn closes a conn that just failed under its flight and drops
// the token binding (the enclave-side flight marks it dead too).
func (f *fetcher) dropTLSConn(token, connID uint64) {
	var conn net.Conn
	f.mu.Lock()
	if c, ok := f.tlsConns[connID]; ok {
		conn = c
		delete(f.tlsConns, connID)
	}
	delete(f.tlsByToken, token)
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// tlsOutcome folds a step failure into a reply, reporting cancellation
// when the failure was self-inflicted by cancelFetch closing the socket.
func (f *fetcher) tlsOutcome(token uint64, errstr string) tlsStepReply {
	f.mu.Lock()
	cancelled := f.tlsCancelled[token]
	f.mu.Unlock()
	if cancelled {
		return tlsStepReply{Cancelled: true}
	}
	return tlsStepReply{Err: errstr}
}
