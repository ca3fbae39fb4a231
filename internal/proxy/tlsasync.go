package proxy

import (
	"bufio"
	"crypto/tls"
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

// This file is the engine stage's one transport: every fetch — blocking or
// async, to a pinned-root HTTPS upstream or a plain-TCP one — is the one
// exchange below, run over a stepConn adapter (crypto/tls on top of it
// when the upstream pins roots, the HTTP exchange directly on it
// otherwise) and one per-upstream keep-alive pool. The adapter never
// touches a socket: every time the exchange needs network I/O it hands a
// stepper a tlsStepArg — dial/send/read/close instructions for ONE I/O
// round — and gets the completion back. Handshake, record crypto and HTTP
// framing never leave the trusted boundary; the host sees ciphertext and
// timing under TLS, the obfuscated request otherwise.
//
// There are two steppers. The blocking stage's (ocallStepper, trusted.go)
// carries the step out in place over the paper's socket ocalls, holding
// the TCS. The async stage's is the flight: crypto/tls and the response
// reader are blocking state machines that cannot be driven one ring
// completion at a time, so the exchange runs as a trusted coroutine that
// parks on an unbuffered channel at every step; the resume worker submits
// the step as ONE async "tls_step" ocall and returns, the request stays
// parked in the pending table with no TCS held, and the completion's
// resume ecall feeds it back in. Strictly one step is outstanding per
// flight (ping-pong over unbuffered channels), so a TCS is occupied only
// while the coroutine is computing, and the abort paths (abandon,
// shutdown) always find the driver parked at a select that also
// watches the cancel/stop channels.

// tlsStepReadMax is the one engine read cap: the host reads at most this
// much per tls_step or recv, and a larger reply is the untrusted runtime
// violating the cap and fails the exchange.
const tlsStepReadMax = 32 << 10

// stepper is the exchange's whole view of the host: how one I/O round is
// carried out, and whether a pooled conn is worth reusing.
type stepper interface {
	// do carries out one step and returns its completion. A read's bytes
	// are appended to into, the exchange's read buffer, and the
	// completion's data is into so grown. A dial step's completion names
	// the conn it opened. False means the exchange was cancelled under
	// the step.
	do(ask *tlsStepArg, into []byte) (tlsStepIn, bool)
	// alive is the pre-use probe of a pooled conn.
	alive(connID uint64) bool
}

// tlsConnIDs mints process-global flight-connection handles.
var tlsConnIDs atomic.Uint64

// errTLSCancelled marks a flight terminated by abort/tombstone/stop
// rather than by the upstream.
var errTLSCancelled = errors.New("proxy: tls fetch cancelled")

// tlsStepIn is one step completion. Fed into a flight, data aliases the
// completion frame; returned by a stepper, it is the exchange's read
// buffer with the step's bytes appended. connID is set by the stepper on
// a dial.
type tlsStepIn struct {
	connID    uint64
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
	// the session to return to the upstream's pool (nil when the conn
	// died or pooling is off), and conn handles the caller should close.
	reply      fetchReply
	pooled     *idleConn
	closeConns []uint64
}

// tlsFlight is one fetch attempt's coroutine handle. The driver
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

// abort terminates the flight from the trusted control plane (abandon, a
// failed step submission). Idempotent; never blocks.
func (f *tlsFlight) abort() { f.once.Do(func() { close(f.cancel) }) }

// flightSend and flightRecv are the rendezvous primitives: one channel
// operation that an abort or a stop unblocks (false).
func flightSend[T any](f *tlsFlight, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-f.cancel:
	case <-f.stop:
	}
	return false
}

func flightRecv[T any](f *tlsFlight, ch <-chan T) (v T, ok bool) {
	select {
	case v = <-ch:
		return v, true
	case <-f.cancel:
	case <-f.stop:
	}
	return v, false
}

// step feeds a completion in and waits for the coroutine's next ask or
// terminal outcome. Driver side. A false return means the flight was
// aborted or the enclave is stopping: the caller synthesizes a Cancelled
// terminal — the coroutine exits through the same closed channel and
// never touches the pool.
func (f *tlsFlight) step(in tlsStepIn) (tlsStepOut, bool) {
	if !flightSend(f, f.in, in) {
		return tlsStepOut{}, false
	}
	return f.recv()
}

// recv waits for the coroutine's next output (driver side).
func (f *tlsFlight) recv() (tlsStepOut, bool) { return flightRecv(f, f.out) }

// yield parks the coroutine: hand the driver an ask, wait for its
// completion. Coroutine side.
func (f *tlsFlight) yield(out tlsStepOut) (tlsStepIn, bool) {
	if !flightSend(f, f.out, out) {
		return tlsStepIn{}, false
	}
	return flightRecv(f, f.in)
}

// finish delivers the terminal outcome, or drops it if the driver
// already synthesized one through the cancel/stop path.
func (f *tlsFlight) finish(out tlsStepOut) { flightSend(f, f.out, out) }

// do parks the coroutine on one tls_step round trip (the flight as a
// stepper). The flight mints the handle a dialled conn is registered under
// — it owns conn lifecycles across pooled exchanges; the untrusted handler
// just keys its table by them.
func (f *tlsFlight) do(ask *tlsStepArg, into []byte) (tlsStepIn, bool) {
	ask.Token = f.token
	if ask.Dial {
		ask.ConnID = tlsConnIDs.Add(1)
	}
	f.connID.Store(ask.ConnID)
	in, ok := f.yield(tlsStepOut{ask: ask})
	if ok && (in.errstr != "" || in.eof) {
		f.connID.Store(0) // the handler closed and deregistered the conn itself
	}
	in.connID = ask.ConnID
	in.data = append(into, in.data...) // the one copy out of the frame
	return in, ok
}

// alive: a flight cannot afford a probe's ring round trip; a pooled conn
// that went stale fails its first step and earns the one retry.
func (f *tlsFlight) alive(uint64) bool { return true }

// stepConn is the net.Conn the trusted exchange runs over. Writes are
// buffered; a Read with nothing buffered flushes everything accumulated
// since the last step — dial instruction, pending writes, deferred closes
// — as ONE step. That coalescing is the perf story on the rings: a fresh
// TLS 1.3 exchange costs two round trips (dial + ClientHello + read, then
// Finished + HTTP request + read); a pooled one, and any plain-TCP one
// (dial + request + read), costs one while the response fits a read. Step
// data lands once, in rbuf, which keeps its capacity across the exchanges
// of a pooled session: the flight copies a completion frame's bytes there,
// and the blocking stage's recv edge copies the host's read there.
type stepConn struct {
	st     stepper
	connID uint64
	host   string
	dial   bool
	// deadline is the absolute bound on the WHOLE fetch — handshake
	// included. Checked trusted-side before every step (a host that simply
	// never completes the step is caught by the per-step read deadline the
	// handler arms from the same clock).
	deadline time.Time
	rbuf     []byte // unread bytes are rbuf[rpos:]
	rpos     int
	wbuf     []byte
	closes   []uint64
	eof      bool
	// live tracks whether the untrusted side currently holds an open
	// conn for connID (a step that fails or reads EOF closes it).
	live bool
}

func (sc *stepConn) Read(p []byte) (int, error) {
	for sc.buffered() == 0 {
		if sc.eof {
			return 0, io.EOF
		}
		if err := sc.flush(); err != nil {
			return 0, err
		}
	}
	n := copy(p, sc.rbuf[sc.rpos:])
	sc.rpos += n
	return n, nil
}

// buffered is how many received bytes the exchange has not read yet.
func (sc *stepConn) buffered() int { return len(sc.rbuf) - sc.rpos }

func (sc *stepConn) Write(p []byte) (int, error) {
	sc.wbuf = append(sc.wbuf, p...)
	return len(p), nil
}

// flush spends one step carrying everything buffered, and reads.
func (sc *stepConn) flush() error {
	var timeoutMS uint64
	if !sc.deadline.IsZero() {
		remain := time.Until(sc.deadline)
		if remain <= 0 {
			return os.ErrDeadlineExceeded
		}
		timeoutMS = uint64(remain/time.Millisecond) + 1
	}
	ask := &tlsStepArg{
		ConnID:    sc.connID,
		Send:      sc.wbuf,
		Close:     sc.closes,
		TimeoutMS: timeoutMS,
	}
	if sc.dial {
		ask.Dial = true
		ask.Host = sc.host
	}
	// Read flushes only once every received byte was read, so the step's
	// bytes start the read buffer afresh.
	in, ok := sc.st.do(ask, sc.rbuf[:0])
	if !ok {
		return errTLSCancelled
	}
	sc.wbuf = sc.wbuf[:0] // the step copied it out; a pooled session keeps the capacity
	sc.closes = nil
	switch {
	case in.cancelled:
		return errTLSCancelled
	case in.errstr != "":
		sc.live = false
		return fmt.Errorf("proxy: tls step: %s", in.errstr)
	}
	if sc.dial {
		sc.dial, sc.connID = false, in.connID
	}
	sc.live = true
	if len(in.data) > tlsStepReadMax {
		return fmt.Errorf("proxy: tls step returned %d bytes (cap %d)", len(in.data), tlsStepReadMax)
	}
	sc.rbuf, sc.rpos = in.data, 0
	if in.eof {
		sc.eof = true
		sc.live = false
	}
	return nil
}

// Close is a no-op: conn lifecycle is explicit (close steps), never
// the exchange's concern.
func (sc *stepConn) Close() error                     { return nil }
func (sc *stepConn) LocalAddr() net.Addr              { return ocallAddr{} }
func (sc *stepConn) RemoteAddr() net.Addr             { return ocallAddr{} }
func (sc *stepConn) SetDeadline(time.Time) error      { return nil }
func (sc *stepConn) SetReadDeadline(time.Time) error  { return nil }
func (sc *stepConn) SetWriteDeadline(time.Time) error { return nil }

// idleConn is one idle keep-alive session in an upstream's pool: its
// adapter and buffered reader — and, for a pinned-root upstream, the live
// crypto/tls state between them — ready to be rebound to the next
// exchange. The socket it fronts stays registered untrusted-side under the
// adapter's connID.
type idleConn struct {
	rw        io.ReadWriter // the *tls.Conn, or sc itself on a plain upstream
	sc        *stepConn
	br        *bufio.Reader
	idleSince time.Time
}

// checkoutIdle pops the freshest idle session for the upstream (LIFO: the
// most recently returned is the likeliest still alive), collecting
// TTL-expired victims' conn handles — oldest first, FIFO — for the caller
// to close (they ride the next step's Close list).
func (u *upstream) checkoutIdle(now time.Time) (*idleConn, []uint64) {
	if u.maxIdle <= 0 {
		return nil, nil
	}
	u.idleMu.Lock()
	defer u.idleMu.Unlock()
	var evict []uint64
	for len(u.idle) > 0 {
		ic := u.idle[0]
		if u.idleTTL > 0 && now.Sub(ic.idleSince) > u.idleTTL {
			evict = append(evict, ic.sc.connID)
			u.idle = u.idle[1:]
			u.poolEvicted.Add(1)
			continue
		}
		break
	}
	if len(u.idle) == 0 {
		return nil, evict
	}
	ic := u.idle[len(u.idle)-1]
	u.idle = u.idle[:len(u.idle)-1]
	return ic, evict
}

// checkout is checkoutIdle behind the stepper's probe: a session whose
// conn the host reports dead (the engine closed it, or leftover bytes
// desynced the HTTP framing) is evicted and the next-freshest tried. The
// host can lie — "alive" for a dead socket just makes the exchange fail
// and retry, it never corrupts a response. Never probes under idleMu.
func (u *upstream) checkout(st stepper, now time.Time) (*idleConn, []uint64) {
	ic, closes := u.checkoutIdle(now)
	for ic != nil && !st.alive(ic.sc.connID) {
		u.poolEvicted.Add(1)
		closes = append(closes, ic.sc.connID)
		var expired []uint64
		ic, expired = u.checkoutIdle(now)
		closes = append(closes, expired...)
	}
	if ic != nil {
		u.poolReuses.Add(1)
	}
	return ic, closes
}

// checkinIdle returns a session to the pool, returning the conn handles
// of evicted-over-capacity victims for the caller to close.
func (u *upstream) checkinIdle(ic *idleConn, now time.Time) []uint64 {
	ic.idleSince = now
	u.idleMu.Lock()
	defer u.idleMu.Unlock()
	var evict []uint64
	u.idle = append(u.idle, ic)
	for len(u.idle) > u.maxIdle {
		evict = append(evict, u.idle[0].sc.connID)
		u.idle = u.idle[1:]
		u.poolEvicted.Add(1)
	}
	return evict
}

// release finishes a terminal outcome's pool bookkeeping: the session it
// offers goes back to the pool, and every conn handle the exchange is done
// with — its own, and capacity victims — is returned for the caller to
// close (close ocalls in place, or a pure-close step on the ring).
func (u *upstream) release(out *tlsStepOut, now time.Time) []uint64 {
	if out.pooled == nil {
		return out.closeConns
	}
	return append(out.closeConns, u.checkinIdle(out.pooled, now)...)
}

// exchange is one fetch attempt end to end, over TLS when u pins roots:
// the engine stage's one implementation, called in place on the blocking
// stage and as a flight's coroutine body on the async one. One absolute
// deadline spans pool checkout, handshake, exchange, and the single
// stale-conn retry. A successful exchange's wall time goes to the fetch
// stage. The caller releases the outcome.
func (ts *trustedState) exchange(st stepper, u *upstream, path string) tlsStepOut {
	var deadline time.Time
	if ts.fetchTimeout > 0 {
		deadline = time.Now().Add(ts.fetchTimeout)
	}
	start := time.Now()
	pooled, evict := u.checkout(st, start)
	out, retry := ts.tlsExchange(st, u, path, pooled, evict, deadline)
	if retry {
		// The pooled session went stale between checkout and use: retry
		// once on a fresh dial (NEVER by resending through the old TLS
		// state — its record layer is desynced). The failed conn's close
		// rides the fresh dial's first step.
		out, _ = ts.tlsExchange(st, u, path, nil, out.closeConns, deadline)
	}
	if out.reply.Err == "" && !out.reply.Cancelled {
		ts.stages.Since(obs.StageFetch, start)
	}
	return out
}

// runTLSFlight is the coroutine body: the exchange with the flight as its
// stepper.
func (ts *trustedState) runTLSFlight(f *tlsFlight, u *upstream, path string) {
	f.finish(ts.exchange(f, u, path))
}

// tlsExchange runs one HTTP exchange over one session (pooled or fresh).
// The bool result asks the caller to retry on a fresh dial: a reused
// session failing for any reason other than cancellation or a deadline is
// indistinguishable from engine-closed-while-idle.
func (ts *trustedState) tlsExchange(st stepper, u *upstream, path string, pooled *idleConn, closes []uint64, deadline time.Time) (tlsStepOut, bool) {
	ic := pooled
	keep := u.maxIdle > 0
	if ic != nil {
		ic.sc.st = st
		ic.sc.deadline = deadline
		ic.sc.closes = append(ic.sc.closes, closes...)
	} else {
		sc := &stepConn{st: st, host: u.host, dial: true, deadline: deadline, closes: closes}
		ic = &idleConn{rw: sc, sc: sc}
		if keep {
			u.poolDials.Add(1) // no pool, no pool activity
		}
		if u.tlsConf != nil {
			conn := tls.Client(sc, u.tlsConf)
			hsStart := time.Now()
			if err := conn.Handshake(); err != nil {
				return tlsFailOut(sc, fmt.Errorf("engine TLS: %w", err)), false
			}
			ts.stages.Since(obs.StageTLSHandshake, hsStart)
			ic.rw = conn
		}
		ic.br = bufio.NewReader(ic.rw)
	}
	sc := ic.sc
	if err := writeEngineRequest(ic.rw, u.host, path, keep); err != nil {
		return tlsFailOut(sc, fmt.Errorf("send request: %w", err)), pooled != nil && retryableTLSErr(err)
	}
	body, status, keepAlive, err := readHTTPResponse(ic.br)
	if err != nil {
		return tlsFailOut(sc, fmt.Errorf("read response: %w", err)), pooled != nil && retryableTLSErr(err)
	}
	out := tlsStepOut{done: true, reply: fetchReply{Status: status, Body: body}}
	// Pool only a session sitting exactly at a record AND response
	// boundary: leftover bytes at any layer — the parser's bufio or the
	// adapter below it — would frame the next request's response (a hostile
	// host pipelining a forged response behind a well-framed one), and the
	// socket-level probe cannot see trusted-side buffers.
	if keep && keepAlive && sc.live && !sc.eof &&
		ic.br.Buffered() == 0 && sc.buffered() == 0 && len(sc.wbuf) == 0 {
		out.pooled = ic
	} else if sc.live {
		out.closeConns = []uint64{sc.connID}
	}
	return out, false
}

// tlsFailOut folds an exchange failure into a terminal outcome.
func tlsFailOut(sc *stepConn, err error) tlsStepOut {
	out := tlsStepOut{done: true}
	if errors.Is(err, errTLSCancelled) {
		out.reply = fetchReply{Cancelled: true}
		return out
	}
	out.reply = fetchReply{Err: err.Error()}
	out.closeConns = sc.closes // not yet carried by a step (deadline spent first)
	if sc.live {
		out.closeConns = append(out.closeConns, sc.connID)
		sc.live = false
	}
	return out
}

// retryableTLSErr is the stale-conn rule: timeouts and cancellations
// never earn the retry (a fresh dial would wait the whole budget again;
// an abort is final).
func retryableTLSErr(err error) bool {
	if err == nil || errors.Is(err, errTLSCancelled) || errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	return !strings.Contains(err.Error(), "timeout")
}

// writeEngineRequest writes the one-line engine GET.
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

// submitFetch starts the flight coroutine for attempt att and submits its
// first step — every submit site (primary, failover, batch burst)
// goes through this one seam. A non-nil error means nothing is
// outstanding and the caller unwinds the reservation. Never called with
// the pending-table lock held: a full submission ring blocks, and the
// resume path needs the lock to drain it.
func (ts *trustedState) submitFetch(env enclave.Env, p *pendingReq, att *pendingAttempt) error {
	f := att.flight
	go ts.runTLSFlight(f, att.u, p.path)
	out, ok := f.recv()
	if !ok {
		return fmt.Errorf("proxy: submit fetch: enclave stopping")
	}
	if out.done {
		// The flight died before its first I/O (deadline already spent,
		// or a checked-out session failed instantly). Flush its close
		// bookkeeping and fail the submission; the caller's stage-error
		// path owns the reply.
		ts.submitTLSClose(env, att.u.release(&out, time.Now()))
		errstr := out.reply.Err
		if errstr == "" {
			errstr = "proxy: fetch aborted before submission"
		}
		return fmt.Errorf("%s", errstr)
	}
	if err := ts.submitTLSStep(env, out.ask); err != nil {
		f.abort()
		return err
	}
	return nil
}

// submitTLSStep posts one step to the switchless ring. Never called with
// the pending-table lock held (a full ring blocks, and the resume path
// needs the lock to drain it).
func (ts *trustedState) submitTLSStep(env enclave.Env, ask *tlsStepArg) error {
	if _, err := env.OCallAsync("tls_step", ask.encode()); err != nil {
		return fmt.Errorf("proxy: submit tls step: %w", err)
	}
	return nil
}

// submitTLSClose fires a best-effort close batch for conns a flight is
// done with. Pure close steps complete with an empty payload the resume
// loop drops on the floor; failures are ignored — closeAll reaps leaked
// conns at shutdown.
func (ts *trustedState) submitTLSClose(env enclave.Env, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	_, _ = env.OCallAsync("tls_step", (&tlsStepArg{Close: ids}).encode())
}

// resumeTLSFlight routes one tls_step completion into its flight: decode
// it (once — resumeOne only peeked the token), feed the bytes in, run the
// coroutine to its next park point, and either submit the next step
// (request stays parked) or fold the terminal outcome into the
// fetch-completion path. Called from resumeOne with the table lock
// RELEASED; att.flight is immutable.
func (ts *trustedState) resumeTLSFlight(env enclave.Env, att *pendingAttempt, arg []byte) resumeReply {
	f := att.flight
	var in tlsStepIn
	var sr tlsStepReply
	if err := sr.decode(arg); err != nil {
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
		// Aborted (abandon) or stopping: synthesize the
		// Cancelled terminal and make sure the untrusted conn dies even
		// if the coroutine never got to say so.
		fr = fetchReply{Cancelled: true}
		if id := f.connID.Load(); id != 0 {
			ts.submitTLSClose(env, []uint64{id})
		}
	case !out.done:
		if err := ts.submitTLSStep(env, out.ask); err != nil {
			f.abort()
			fr = fetchReply{Err: err.Error()}
			if id := f.connID.Load(); id != 0 {
				ts.submitTLSClose(env, []uint64{id})
			}
			break
		}
		return resumeReply{State: resumePending, PendingID: att.p.id} // no DoneToken: the flight lives
	default:
		ts.submitTLSClose(env, att.u.release(&out, time.Now()))
		fr = out.reply
	}
	// Terminal: breaker accounting, failover or settle.
	pt := ts.pending
	pt.mu.Lock()
	if cur, live := pt.byToken[att.token]; !live || cur != att {
		// Abandon already freed the attempt (and reported the breaker);
		// only the untrusted token-map cleanup is left to signal.
		pt.mu.Unlock()
		return resumeReply{State: resumeOrphan, DoneToken: att.token}
	}
	delete(pt.byToken, att.token)
	att.p.live = nil
	// Every terminal shape — done, orphan, failover — names
	// the flight's token, so the untrusted step handler drops its
	// per-token state (tombstones, conn binding) exactly once.
	rr := ts.completeFetchLocked(env, att, &fr)
	rr.DoneToken = att.token
	return rr
}
