package enclave

import (
	"errors"
	"fmt"
)

// Async ocalls are the simulation's switchless-call analogue (Intel's
// switchless SGX SDK calls, HotCalls): instead of paying EENTER/EEXIT for
// every ocall and pinning the calling TCS for the ocall's full duration,
// trusted code posts a request descriptor to a submission ring in shared
// memory and RETURNS from its ecall; untrusted worker goroutines service
// the ring and post results to a completion ring, which the untrusted
// runtime drains out-of-band. The two costs this removes are exactly the
// paper's two SGX performance costs at scale: boundary transitions (a
// submission pays none) and TCS occupancy (the enclave thread is free
// while the call is in flight). The price is a staged programming model —
// the ecall that submitted cannot see the result; a later ecall must be
// re-entered with the completion.

// ErrAsyncDisabled is returned by OCallAsync when the enclave was built
// without async workers.
var ErrAsyncDisabled = errors.New("enclave: async ocalls not configured")

// asyncCall is one submission-ring entry.
type asyncCall struct {
	id   uint64
	name string
	arg  []byte
}

// AsyncCompletion is one completion-ring entry: the result of a previously
// submitted async ocall. Exactly one completion is produced per submission
// accepted by OCallAsync, in service order (not submission order).
type AsyncCompletion struct {
	// ID is the submission handle OCallAsync returned.
	ID uint64
	// Result and Err are the ocall handler's return values. Like every
	// ocall result, they originate outside the enclave and are hostile
	// input to whatever trusted code consumes them.
	Result []byte
	Err    error
}

// startAsyncWorkers wires the rings and spawns the untrusted worker pool.
// Called from Build when Config.AsyncWorkers > 0.
func (e *Enclave) startAsyncWorkers() {
	workers := e.cfg.AsyncWorkers
	// Both rings are 2 × AsyncWorkers deep. A full submission ring blocks
	// OCallAsync (backpressure inside the enclave); a full completion ring
	// blocks workers (backpressure on the untrusted runtime's drain loop).
	// The proxy already requires at least 2 × PipelineDepth + BatchMax
	// workers, its most outstanding steps, so its rings hold twice that.
	depth := 2 * workers
	e.asyncSub = make(chan asyncCall, depth)
	e.asyncDone = make(chan AsyncCompletion, depth)
	e.asyncStop = make(chan struct{})
	for i := 0; i < workers; i++ {
		go e.asyncWorker()
	}
}

// asyncWorker services the submission ring: pop a call, run its untrusted
// handler, push the completion. The handler runs entirely outside the
// enclave, so no transition cost is paid on either ring — the switchless
// point. A completion that cannot be pushed before the enclave is
// destroyed is dropped (its consumer is gone with the enclave).
func (e *Enclave) asyncWorker() {
	for {
		select {
		case <-e.asyncStop:
			return
		case call := <-e.asyncSub:
			e.mu.Lock()
			h, ok := e.ocalls[call.name]
			e.mu.Unlock()
			var c AsyncCompletion
			c.ID = call.id
			if !ok {
				c.Err = fmt.Errorf("%w: %q", ErrUnknownOCall, call.name)
			} else {
				c.Result, c.Err = h(call.arg, nil)
			}
			e.asyncCompleted.Add(1)
			select {
			case e.asyncDone <- c:
			case <-e.asyncStop:
				return
			}
		}
	}
}

// Completions returns the completion ring. The untrusted runtime drains it
// and re-enters the enclave with each result; a full ring applies
// backpressure to the workers, never to trusted code. Nil when the enclave
// was built without async workers.
func (e *Enclave) Completions() <-chan AsyncCompletion { return e.asyncDone }

// stopAsync tears the rings down on Destroy. In-flight handler calls run
// to completion in their worker goroutines; their completions are dropped.
func (e *Enclave) stopAsync() {
	if e.asyncStop != nil {
		close(e.asyncStop)
	}
}

// OCallAsync posts an ocall to the submission ring and returns immediately
// with a completion handle, paying NO transition cost: the descriptor is
// written to shared memory, not carried across the enclave boundary by the
// calling thread. The calling ecall should return soon after, releasing
// its TCS while the call is serviced; the result arrives on the completion
// ring. A full submission ring blocks (backpressure) until a worker drains
// it or the enclave is destroyed.
func (v *env) OCallAsync(name string, arg []byte) (uint64, error) {
	e := v.e
	if e.asyncSub == nil {
		return 0, ErrAsyncDisabled
	}
	e.mu.Lock()
	_, ok := e.ocalls[name]
	destroyed := e.destroyed
	e.mu.Unlock()
	if destroyed {
		return 0, ErrDestroyed
	}
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownOCall, name)
	}
	id := e.asyncID.Add(1)
	select {
	case e.asyncSub <- asyncCall{id: id, name: name, arg: arg}:
	case <-e.asyncStop:
		return 0, ErrDestroyed
	}
	// Counted as soon as the ring accepted the call — including the
	// raced-by-stop case below, where a lingering worker may still service
	// it — so asyncCompleted can never exceed asyncSubmitted.
	e.asyncSubmitted.Add(1)
	e.ocallCount.Add(1)
	select {
	case <-e.asyncStop:
		// Stop raced the send (a buffered ring makes both cases of the
		// select above ready): the workers may already have exited with
		// the call still buffered, so no completion is guaranteed. Report
		// failure; at worst a worker still drains it and the orphaned
		// completion is dropped with the enclave.
		return 0, ErrDestroyed
	default:
	}
	return id, nil
}

// asyncCounters snapshots the async accounting for Stats.
func (e *Enclave) asyncCounters() (submitted, completed uint64) {
	return e.asyncSubmitted.Load(), e.asyncCompleted.Load()
}
