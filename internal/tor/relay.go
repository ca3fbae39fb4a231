package tor

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/netsim"
	"xsearch/internal/securechannel"
)

// Errors returned by the network.
var (
	ErrClosed       = errors.New("tor: network closed")
	ErrNotEnough    = errors.New("tor: not enough relays for circuit")
	ErrCircuitState = errors.New("tor: circuit in bad state")
)

// Relay is one onion router. Its crypto path runs in a single worker
// goroutine — the realistic serialization point of a 2017 relay — while WAN
// propagation happens off-worker so delays pipeline as on a real network.
type Relay struct {
	id       int
	identity *ecdh.PrivateKey

	inbox  chan relayTask
	done   chan struct{}
	closed atomic.Bool

	// cellInterval throttles the worker to one cell per interval,
	// modelling per-relay bandwidth. Zero means CPU-bound.
	cellInterval time.Duration
	nextSlot     time.Time

	mu       sync.Mutex
	circuits map[uint64]*relayCircuit
}

// relayCircuit is a relay's per-circuit routing state.
type relayCircuit struct {
	key     [32]byte
	forward func(Cell) // deliver toward the exit (nil at the exit)
	back    func(Cell) // deliver toward the client
	// exit-side reassembly of forward cells (links reorder)
	reasm  *reassembler
	exit   ExitHandler
	outSeq uint64
}

type relayTask struct {
	cell     Cell
	backward bool
}

// ExitHandler is invoked by the exit relay with the client's request
// payload (the search query) and returns the response payload.
type ExitHandler func(payload []byte) ([]byte, error)

func newRelay(id int, cellInterval time.Duration) (*Relay, error) {
	identity, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tor: relay identity: %w", err)
	}
	r := &Relay{
		id:           id,
		identity:     identity,
		inbox:        make(chan relayTask, 4096),
		done:         make(chan struct{}),
		cellInterval: cellInterval,
		circuits:     make(map[uint64]*relayCircuit),
	}
	go r.worker()
	return r, nil
}

// worker is the single crypto thread of the relay, paced at the relay's
// bandwidth when one is configured.
func (r *Relay) worker() {
	for {
		select {
		case <-r.done:
			return
		case task := <-r.inbox:
			if r.cellInterval > 0 {
				now := time.Now()
				if r.nextSlot.After(now) {
					time.Sleep(r.nextSlot.Sub(now))
					r.nextSlot = r.nextSlot.Add(r.cellInterval)
				} else {
					r.nextSlot = now.Add(r.cellInterval)
				}
			}
			r.process(task)
		}
	}
}

func (r *Relay) process(task relayTask) {
	cell := task.cell
	r.mu.Lock()
	circ, ok := r.circuits[cell.circuitID()]
	r.mu.Unlock()
	if !ok {
		return // unknown circuit: drop, as real relays do
	}
	if task.backward {
		// Add this relay's layer and send toward the client.
		if err := cryptCellBody(circ.key, dirBackward, &cell); err != nil {
			return
		}
		if circ.back != nil {
			circ.back(cell)
		}
		return
	}
	// Forward direction: strip this relay's layer.
	if err := cryptCellBody(circ.key, dirForward, &cell); err != nil {
		return
	}
	if circ.forward != nil {
		circ.forward(cell)
		return
	}
	// This relay is the exit: reassemble, run the request, reply.
	if circ.reasm == nil {
		circ.reasm = newReassembler()
	}
	request, complete := circ.reasm.Add(cell)
	if !complete {
		return
	}
	var response []byte
	if circ.exit != nil {
		resp, err := circ.exit(request)
		if err != nil {
			resp = []byte("ERR " + err.Error())
		}
		response = resp
	}
	cells, err := packMessage(cell.circuitID(), circ.outSeq, response)
	if err != nil {
		return
	}
	circ.outSeq += uint64(len(cells))
	for _, rc := range cells {
		// The exit adds its own layer before handing the cell back.
		if err := cryptCellBody(circ.key, dirBackward, &rc); err != nil {
			return
		}
		if circ.back != nil {
			circ.back(rc)
		}
	}
}

// submit enqueues a cell for the relay worker, applying the hop's WAN delay
// asynchronously so propagation pipelines.
func (r *Relay) submit(link *netsim.Link, task relayTask) {
	if r.closed.Load() {
		return
	}
	if link == nil {
		select {
		case r.inbox <- task:
		case <-r.done:
		}
		return
	}
	go func() {
		link.Wait()
		select {
		case r.inbox <- task:
		case <-r.done:
		}
	}()
}

// handshake answers a CREATE: generate an ephemeral key, derive the shared
// circuit key (ntor-style: ECDH over ephemeral + identity keys), and
// install the circuit entry.
func (r *Relay) handshake(circuitID uint64, clientEph []byte) (relayEphPub []byte, err error) {
	clientPub, err := ecdh.P256().NewPublicKey(clientEph)
	if err != nil {
		return nil, fmt.Errorf("tor: client eph: %w", err)
	}
	eph, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tor: relay eph: %w", err)
	}
	s1, err := eph.ECDH(clientPub)
	if err != nil {
		return nil, err
	}
	s2, err := r.identity.ECDH(clientPub)
	if err != nil {
		return nil, err
	}
	key, err := deriveCircuitKey(s1, s2, circuitID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.circuits[circuitID] = &relayCircuit{key: key}
	r.mu.Unlock()
	return eph.PublicKey().Bytes(), nil
}

func deriveCircuitKey(s1, s2 []byte, circuitID uint64) ([32]byte, error) {
	var key [32]byte
	ikm := append(append([]byte{}, s1...), s2...)
	info := fmt.Sprintf("tor circuit %d", circuitID)
	raw, err := securechannel.DeriveKey(ikm, nil, []byte(info), 32)
	if err != nil {
		return key, err
	}
	copy(key[:], raw)
	return key, nil
}

// configure installs routing for a circuit on this relay.
func (r *Relay) configure(circuitID uint64, forward, back func(Cell), exit ExitHandler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	circ, ok := r.circuits[circuitID]
	if !ok {
		return fmt.Errorf("%w: relay %d has no circuit %d", ErrCircuitState, r.id, circuitID)
	}
	circ.forward = forward
	circ.back = back
	circ.exit = exit
	return nil
}

// teardown removes a circuit.
func (r *Relay) teardown(circuitID uint64) {
	r.mu.Lock()
	delete(r.circuits, circuitID)
	r.mu.Unlock()
}

// close stops the relay worker.
func (r *Relay) close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.done)
	}
}
