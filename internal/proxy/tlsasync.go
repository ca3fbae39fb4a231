package proxy

import (
	"bufio"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/enclave"
	"xsearch/internal/obs"
)

// This file puts in-enclave TLS on the switchless async pipeline.
//
// crypto/tls is a blocking state machine: it cannot be driven one ring
// completion at a time. Instead each TLS fetch attempt runs as a trusted
// coroutine (a goroutine inside the simulated enclave) speaking the
// ordinary blocking crypto/tls + HTTP exchange over a stepConn adapter.
// The adapter never touches a socket: every time the TLS layer needs
// network I/O the coroutine parks on an unbuffered channel and hands the
// resume worker a tlsStepArg — dial/send/read/close instructions for ONE
// async "tls_step" ocall. The worker submits it to the ring and returns;
// the request stays parked in the pending table with no TCS held. When
// the ciphertext completion arrives, the resume ecall feeds it back in
// and the coroutine runs to its next I/O point. Handshake and record
// crypto never leave the trusted boundary; the host sees only ciphertext
// and timing, exactly as on the blocking path.
//
// Strictly one step is outstanding per flight (ping-pong over unbuffered
// channels), so a TCS is occupied only while the coroutine is computing,
// and the abort paths (hedge loser, abandon, shutdown) always find the
// driver parked at a select that also watches the cancel/stop channels.

// tlsStepReadMax bounds one step's returned ciphertext. The handler
// reads at most this much per step; a larger reply is the untrusted
// runtime violating the cap and fails the exchange.
const tlsStepReadMax = 32 << 10

// tlsConnIDs mints process-global ciphertext-connection handles. The
// trusted side names conns (it owns their lifecycle across pooled
// exchanges); the untrusted handler just keys its table by them.
var tlsConnIDs atomic.Uint64

// errTLSCancelled marks a flight terminated by abort/tombstone/stop
// rather than by the upstream.
var errTLSCancelled = errors.New("proxy: tls fetch cancelled")

// tlsStepIn is one ciphertext completion fed back into the coroutine.
type tlsStepIn struct {
	data      []byte
	eof       bool
	errstr    string
	cancelled bool
}

// tlsStepOut is what the coroutine hands the driver at each park point:
// either the next step to submit (ask != nil) or the terminal outcome.
type tlsStepOut struct {
	ask  *tlsStepArg
	done bool
	// Terminal state (done == true): the fetch reply to complete with,
	// the connection to return to the upstream's TLS pool (nil when the
	// conn died or pooling is off), and conn handles the driver should
	// fire close steps for.
	reply      fetchReply
	pooled     *tlsPooledConn
	closeConns []uint64
}

// tlsFlight is one TLS fetch attempt's coroutine handle. The driver
// (resume worker holding a TCS) and the coroutine rendezvous over the
// unbuffered in/out channels; cancel (closed at most once by abort) and
// stop (closed at shutdown/crash) unblock both sides from any park.
type tlsFlight struct {
	token  uint64
	in     chan tlsStepIn
	out    chan tlsStepOut
	cancel chan struct{}
	stop   <-chan struct{}
	once   sync.Once
	// connID is the flight's current ciphertext conn (0 = none), kept for
	// the driver's belt-and-suspenders close on an aborted flight.
	connID atomic.Uint64
}

func (ts *trustedState) newTLSFlight(token uint64) *tlsFlight {
	return &tlsFlight{
		token:  token,
		in:     make(chan tlsStepIn),
		out:    make(chan tlsStepOut),
		cancel: make(chan struct{}),
		stop:   ts.flightStop,
	}
}

// abort terminates the flight from the trusted control plane (hedge
// loser, abandon). Idempotent; never blocks.
func (f *tlsFlight) abort() { f.once.Do(func() { close(f.cancel) }) }

// step feeds a completion in and waits for the coroutine's next ask or
// terminal outcome. Driver side. A false return means the flight was
// aborted or the enclave is stopping: the caller synthesizes a Cancelled
// terminal — the coroutine exits through the same closed channel and
// never touches the pool.
func (f *tlsFlight) step(in tlsStepIn) (tlsStepOut, bool) {
	select {
	case f.in <- in:
	case <-f.cancel:
		return tlsStepOut{}, false
	case <-f.stop:
		return tlsStepOut{}, false
	}
	return f.recv()
}

// recv waits for the coroutine's next output (driver side).
func (f *tlsFlight) recv() (tlsStepOut, bool) {
	select {
	case out := <-f.out:
		return out, true
	case <-f.cancel:
		return tlsStepOut{}, false
	case <-f.stop:
		return tlsStepOut{}, false
	}
}

// yield parks the coroutine: hand the driver an ask, wait for its
// completion. Coroutine side.
func (f *tlsFlight) yield(out tlsStepOut) (tlsStepIn, bool) {
	select {
	case f.out <- out:
	case <-f.cancel:
		return tlsStepIn{}, false
	case <-f.stop:
		return tlsStepIn{}, false
	}
	select {
	case in := <-f.in:
		return in, true
	case <-f.cancel:
		return tlsStepIn{}, false
	case <-f.stop:
		return tlsStepIn{}, false
	}
}

// finish delivers the terminal outcome, or drops it if the driver
// already synthesized one through the cancel/stop path.
func (f *tlsFlight) finish(out tlsStepOut) {
	select {
	case f.out <- out:
	case <-f.cancel:
	case <-f.stop:
	}
}

// stepConn is the net.Conn the trusted TLS layer runs over. Writes are
// buffered; a Read with nothing buffered flushes everything accumulated
// since the last park — dial instruction, pending ciphertext writes,
// deferred closes — as ONE step, then parks. That coalescing is the perf
// story: a fresh TLS 1.3 exchange costs two ring round trips (dial +
// ClientHello + read, then Finished + HTTP request + read) and a pooled
// one costs one, matching the plain-TCP fetch.
type stepConn struct {
	f      *tlsFlight
	connID uint64
	host   string
	dial   bool
	// deadline is the absolute bound on the WHOLE fetch — handshake
	// included. Checked trusted-side before every park (a host that
	// simply never completes the step is caught by the per-step read
	// deadline the handler arms from the same clock).
	deadline time.Time
	rbuf     []byte
	wbuf     []byte
	closes   []uint64
	eof      bool
	// live tracks whether the untrusted side currently holds an open
	// conn for connID (the handler closes it itself on I/O error/EOF).
	live bool
}

func (sc *stepConn) Read(p []byte) (int, error) {
	for len(sc.rbuf) == 0 {
		if sc.eof {
			return 0, io.EOF
		}
		if err := sc.flush(true); err != nil {
			return 0, err
		}
	}
	n := copy(p, sc.rbuf)
	sc.rbuf = sc.rbuf[n:]
	return n, nil
}

func (sc *stepConn) Write(p []byte) (int, error) {
	sc.wbuf = append(sc.wbuf, p...)
	return len(p), nil
}

// flush parks the coroutine on one tls_step round trip carrying
// everything buffered. read asks the handler to block for ciphertext.
func (sc *stepConn) flush(read bool) error {
	var timeoutMS int64
	if !sc.deadline.IsZero() {
		remain := time.Until(sc.deadline)
		if remain <= 0 {
			return os.ErrDeadlineExceeded
		}
		timeoutMS = int64(remain/time.Millisecond) + 1
	}
	ask := &tlsStepArg{
		Token:     sc.f.token,
		ConnID:    sc.connID,
		Send:      sc.wbuf,
		Read:      read,
		Close:     sc.closes,
		TimeoutMS: timeoutMS,
	}
	if sc.dial {
		ask.Dial = true
		ask.Host = sc.host
	}
	sc.f.connID.Store(sc.connID)
	in, ok := sc.f.yield(tlsStepOut{ask: ask})
	if !ok {
		return errTLSCancelled
	}
	sc.dial = false
	sc.wbuf = nil
	sc.closes = nil
	switch {
	case in.cancelled:
		return errTLSCancelled
	case in.errstr != "":
		// The handler closed and deregistered the conn itself.
		sc.live = false
		sc.f.connID.Store(0)
		return fmt.Errorf("proxy: tls step: %s", in.errstr)
	}
	sc.live = true
	if len(in.data) > tlsStepReadMax {
		return fmt.Errorf("proxy: tls step returned %d bytes (cap %d)", len(in.data), tlsStepReadMax)
	}
	if len(in.data) > 0 {
		sc.rbuf = append(sc.rbuf, in.data...)
	}
	if in.eof {
		sc.eof = true
		sc.live = false
		sc.f.connID.Store(0)
	}
	return nil
}

// Close is a no-op: conn lifecycle is explicit (close steps), never
// crypto/tls's concern.
func (sc *stepConn) Close() error                     { return nil }
func (sc *stepConn) LocalAddr() net.Addr              { return ocallAddr{} }
func (sc *stepConn) RemoteAddr() net.Addr             { return ocallAddr{} }
func (sc *stepConn) SetDeadline(time.Time) error      { return nil }
func (sc *stepConn) SetReadDeadline(time.Time) error  { return nil }
func (sc *stepConn) SetWriteDeadline(time.Time) error { return nil }

// tlsPooledConn is one idle keep-alive TLS session in an upstream's
// trusted pool: the live crypto/tls state plus its adapter and buffered
// reader, ready to be rebound to the next flight. The ciphertext socket
// it fronts stays registered untrusted-side under connID.
type tlsPooledConn struct {
	connID    uint64
	conn      *tls.Conn
	sc        *stepConn
	br        *bufio.Reader
	idleSince time.Time
}

// checkoutTLS pops the freshest idle TLS session for the upstream,
// collecting TTL-expired victims' conn handles for the caller to close
// (they ride the next step's Close list — no extra ring traffic).
func (u *upstream) checkoutTLS(now time.Time) (*tlsPooledConn, []uint64) {
	if u.tlsConf == nil || u.tlsMaxIdle <= 0 {
		return nil, nil
	}
	u.tlsMu.Lock()
	defer u.tlsMu.Unlock()
	var evict []uint64
	for len(u.tlsIdle) > 0 {
		pc := u.tlsIdle[0]
		if u.tlsTTL > 0 && now.Sub(pc.idleSince) > u.tlsTTL {
			evict = append(evict, pc.connID)
			u.tlsIdle = u.tlsIdle[1:]
			u.tlsEvicted.Add(1)
			continue
		}
		break
	}
	if len(u.tlsIdle) == 0 {
		return nil, evict
	}
	pc := u.tlsIdle[len(u.tlsIdle)-1]
	u.tlsIdle = u.tlsIdle[:len(u.tlsIdle)-1]
	return pc, evict
}

// checkinTLS returns a session to the pool, returning the conn handles
// of evicted-over-capacity victims for the caller to close.
func (u *upstream) checkinTLS(pc *tlsPooledConn, now time.Time) []uint64 {
	if pc == nil {
		return nil
	}
	pc.idleSince = now
	u.tlsMu.Lock()
	defer u.tlsMu.Unlock()
	var evict []uint64
	u.tlsIdle = append(u.tlsIdle, pc)
	for len(u.tlsIdle) > u.tlsMaxIdle {
		evict = append(evict, u.tlsIdle[0].connID)
		u.tlsIdle = u.tlsIdle[1:]
		u.tlsEvicted.Add(1)
	}
	return evict
}

// runTLSFlight is the coroutine body: one TLS fetch attempt end to end.
// One absolute deadline spans pool checkout, handshake, exchange, and
// the single stale-conn retry — closing the "deadlines are not
// supported" gap the blocking adapter used to document.
func (ts *trustedState) runTLSFlight(f *tlsFlight, u *upstream, path string) {
	var deadline time.Time
	if ts.fetchTimeout > 0 {
		deadline = time.Now().Add(ts.fetchTimeout)
	}
	start := time.Now()
	pooled, evict := u.checkoutTLS(start)
	out, retry := ts.tlsExchange(f, u, path, pooled, evict, deadline)
	if retry {
		// The pooled session went stale between checkout and use: retry
		// once on a fresh dial (NEVER by resending through the old TLS
		// state — its record layer is desynced). The failed conn's close
		// rides the fresh dial's first step.
		out, _ = ts.tlsExchange(f, u, path, nil, out.closeConns, deadline)
	}
	if out.done && out.reply.Err == "" && !out.reply.Cancelled {
		ts.stages.Since(obs.StageFetch, start)
	}
	f.finish(out)
}

// tlsExchange runs one HTTP exchange over one TLS session (pooled or
// fresh). The bool result asks the caller to retry on a fresh dial: a
// reused session failing for any reason other than cancellation or a
// deadline is indistinguishable from engine-closed-while-idle, the same
// rule the plain paths apply.
func (ts *trustedState) tlsExchange(f *tlsFlight, u *upstream, path string, pooled *tlsPooledConn, closes []uint64, deadline time.Time) (tlsStepOut, bool) {
	reused := pooled != nil
	var sc *stepConn
	var conn *tls.Conn
	var br *bufio.Reader
	if reused {
		sc, conn, br = pooled.sc, pooled.conn, pooled.br
		sc.f = f
		sc.deadline = deadline
		sc.closes = append(sc.closes, closes...)
		f.connID.Store(sc.connID)
		u.tlsReuses.Add(1)
	} else {
		sc = &stepConn{
			f:        f,
			connID:   tlsConnIDs.Add(1),
			host:     u.host,
			dial:     true,
			deadline: deadline,
			closes:   closes,
		}
		f.connID.Store(sc.connID)
		u.tlsDials.Add(1)
		conn = tls.Client(sc, u.tlsConf)
		hsStart := time.Now()
		if err := conn.Handshake(); err != nil {
			return tlsFailOut(f.token, sc, fmt.Errorf("engine TLS: %v", err)), false
		}
		ts.stages.Since(obs.StageTLSHandshake, hsStart)
		br = bufio.NewReader(conn)
	}
	keep := ts.asyncKeepAlive && u.tlsMaxIdle > 0
	if err := writeEngineRequest(conn, u.host, path, keep); err != nil {
		return tlsFailOut(f.token, sc, fmt.Errorf("send request: %v", err)), reused && retryableTLSErr(err)
	}
	body, status, keepAlive, err := readHTTPResponse(br)
	if err != nil {
		return tlsFailOut(f.token, sc, err), reused && retryableTLSErr(err)
	}
	out := tlsStepOut{done: true, reply: fetchReply{Token: f.token, Status: status, Body: body}}
	// Pool only a session sitting exactly at a record AND response
	// boundary: leftover bytes at any layer would frame the next
	// request's response (the same smuggling guard as the plain pools).
	if keep && keepAlive && sc.live && !sc.eof &&
		br.Buffered() == 0 && len(sc.rbuf) == 0 && len(sc.wbuf) == 0 {
		out.pooled = &tlsPooledConn{connID: sc.connID, conn: conn, sc: sc, br: br}
	} else if sc.live {
		out.closeConns = []uint64{sc.connID}
	}
	return out, false
}

// tlsFailOut folds an exchange failure into a terminal outcome.
func tlsFailOut(token uint64, sc *stepConn, err error) tlsStepOut {
	out := tlsStepOut{done: true}
	if errors.Is(err, errTLSCancelled) {
		out.reply = fetchReply{Token: token, Cancelled: true}
		return out
	}
	out.reply = fetchReply{Token: token, Err: err.Error()}
	if sc.live {
		out.closeConns = []uint64{sc.connID}
		sc.live = false
	}
	return out
}

// retryableTLSErr mirrors the plain fetcher's stale-conn rule: timeouts
// and cancellations never earn the retry (a fresh dial would wait the
// whole budget again; an abort is final).
func retryableTLSErr(err error) bool {
	if err == nil || errors.Is(err, errTLSCancelled) || errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	return !strings.Contains(err.Error(), "timeout")
}

// writeEngineRequest writes the one-line engine GET (shared by the
// blocking round trip and the TLS flight).
func writeEngineRequest(w io.Writer, host, path string, keepAlive bool) error {
	connHeader := "close"
	if keepAlive {
		connHeader = "keep-alive"
	}
	_, err := io.WriteString(w, "GET "+path+" HTTP/1.1\r\nHost: "+host+
		"\r\nConnection: "+connHeader+"\r\n\r\n")
	return err
}

// --- driver side: pending-table integration ---

// submitTLSFetch starts the flight coroutine for attempt att and submits
// its first ciphertext step. Mirrors submitFetch's contract: a non-nil
// error means nothing is outstanding and the caller unwinds the
// reservation.
func (ts *trustedState) submitTLSFetch(env enclave.Env, p *pendingReq, att *pendingAttempt) error {
	f := ts.newTLSFlight(att.token)
	pt := ts.pending
	pt.mu.Lock()
	att.flight = f
	pt.mu.Unlock()
	go ts.runTLSFlight(f, att.u, p.path)
	out, ok := f.recv()
	if !ok {
		return fmt.Errorf("proxy: submit tls fetch: enclave stopping")
	}
	if out.done {
		// The flight died before its first I/O (deadline already spent,
		// or a checked-out session failed instantly). Flush its close
		// bookkeeping and fail the submission; the caller's stage-error
		// path owns the reply.
		ts.submitTLSClose(env, out.closeConns)
		if out.pooled != nil {
			ts.submitTLSClose(env, att.u.checkinTLS(out.pooled, time.Now()))
		}
		errstr := out.reply.Err
		if errstr == "" {
			errstr = "proxy: tls fetch aborted before submission"
		}
		return fmt.Errorf("%s", errstr)
	}
	if err := ts.submitTLSStep(env, out.ask); err != nil {
		f.abort()
		return err
	}
	return nil
}

// submitTLSStep posts one ciphertext step to the switchless ring. Never
// called with the pending-table lock held (a full ring blocks, and the
// resume path needs the lock to drain it).
func (ts *trustedState) submitTLSStep(env enclave.Env, ask *tlsStepArg) error {
	arg, err := json.Marshal(ask)
	if err != nil {
		return err
	}
	if _, err := env.OCallAsync("tls_step", arg); err != nil {
		return fmt.Errorf("proxy: submit tls step: %w", err)
	}
	return nil
}

// submitTLSClose fires a best-effort close batch for ciphertext conns a
// flight is done with. Pure close steps complete with an empty payload
// the resume loop drops on the floor; failures are ignored — closeAll
// reaps leaked conns at shutdown.
func (ts *trustedState) submitTLSClose(env enclave.Env, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	arg, err := json.Marshal(&tlsStepArg{Close: ids})
	if err != nil {
		return
	}
	_, _ = env.OCallAsync("tls_step", arg)
}

// resumeTLSFlight routes one tls_step completion into its flight: feed
// the ciphertext in, run the coroutine to its next park point, and
// either submit the next step (request stays parked) or fold the
// terminal outcome into the ordinary fetch-completion path. Called from
// resumeOne with the table lock RELEASED; att.flight is immutable
// once set.
func (ts *trustedState) resumeTLSFlight(env enclave.Env, att *pendingAttempt, arg []byte) resumeReply {
	f := att.flight
	var in tlsStepIn
	var sr tlsStepReply
	if err := json.Unmarshal(arg, &sr); err != nil {
		// Hostile/garbled completion: treat as a transport error step so
		// the flight terminates through the normal failure path.
		in = tlsStepIn{errstr: "malformed tls step reply"}
	} else {
		in = tlsStepIn{data: sr.Data, eof: sr.EOF, errstr: sr.Err, cancelled: sr.Cancelled}
	}
	out, ok := f.step(in)
	var fr fetchReply
	switch {
	case !ok:
		// Aborted (hedge loser, abandon) or stopping: synthesize the
		// Cancelled terminal and make sure the untrusted conn dies even
		// if the coroutine never got to say so.
		fr = fetchReply{Token: att.token, Cancelled: true}
		if id := f.connID.Load(); id != 0 {
			ts.submitTLSClose(env, []uint64{id})
		}
	case !out.done:
		if err := ts.submitTLSStep(env, out.ask); err != nil {
			f.abort()
			fr = fetchReply{Token: att.token, Err: err.Error()}
			if id := f.connID.Load(); id != 0 {
				ts.submitTLSClose(env, []uint64{id})
			}
			break
		}
		return resumeReply{State: resumePending, PendingID: att.p.id} // no DoneToken: the flight lives
	default:
		ts.submitTLSClose(env, out.closeConns)
		if out.pooled != nil {
			ts.submitTLSClose(env, att.u.checkinTLS(out.pooled, time.Now()))
		}
		fr = out.reply
		fr.Token = att.token
	}
	// Terminal: re-enter the completion path the plain fetch takes.
	pt := ts.pending
	pt.mu.Lock()
	if cur, live := pt.byToken[att.token]; !live || cur != att {
		// Abandon already freed the attempt (and reported the breaker);
		// only the untrusted token-map cleanup is left to signal.
		pt.mu.Unlock()
		return resumeReply{State: resumeOrphan, DoneToken: att.token}
	}
	delete(pt.byToken, att.token)
	att.done = true
	// Every terminal shape — done, orphan, late loser, failover — names
	// the flight's token, so the untrusted fetcher drops its per-token TLS
	// state (tombstones, conn binding) exactly once.
	rr := ts.completeFetchLocked(env, att, &fr)
	rr.DoneToken = att.token
	return rr
}
