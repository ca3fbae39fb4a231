package tor

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"xsearch/internal/netsim"
)

// NetworkConfig parameterizes a simulated Tor network.
type NetworkConfig struct {
	// Relays is the number of onion routers (>= 3 for default circuits).
	Relays int
	// HopMedian is the median one-way inter-hop WAN delay; zero uses
	// netsim.RelayHopMedian.
	HopMedian time.Duration
	// Scale compresses WAN time (see netsim.Link); zero means 1.0.
	Scale float64
	// Seed fixes relay selection and latency draws.
	Seed uint64
	// RelayCellRate caps each relay's cell-processing rate (cells/s),
	// modelling per-relay bandwidth of the 2017 public network. Zero
	// means unlimited (CPU-bound).
	RelayCellRate float64
	// Exit handles requests leaving the network. Nil makes exits echo
	// empty responses (the Figure 5 capacity configuration).
	Exit ExitHandler
}

// Network is a set of running relays plus a directory.
type Network struct {
	relays     []*Relay
	links      []*netsim.Link // per-relay ingress link
	clientLink *netsim.Link   // guard -> client leg
	exit       ExitHandler

	mu       sync.Mutex
	rng      *mrand.Rand
	nextCirc atomic.Uint64
	closed   atomic.Bool
}

// NewNetwork starts the relays.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Relays < 3 {
		return nil, fmt.Errorf("tor: need >= 3 relays, got %d", cfg.Relays)
	}
	if cfg.HopMedian <= 0 {
		cfg.HopMedian = netsim.RelayHopMedian
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	n := &Network{
		exit: cfg.Exit,
		rng:  mrand.New(mrand.NewPCG(cfg.Seed, cfg.Seed^0x94d049bb133111eb)),
	}
	var cellInterval time.Duration
	if cfg.RelayCellRate > 0 {
		cellInterval = time.Duration(float64(time.Second) / cfg.RelayCellRate)
	}
	for i := 0; i < cfg.Relays; i++ {
		r, err := newRelay(i, cellInterval)
		if err != nil {
			n.Close()
			return nil, err
		}
		model, err := netsim.NewLognormal(cfg.HopMedian, netsim.WANSigma, cfg.Seed+uint64(i)+1)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.relays = append(n.relays, r)
		n.links = append(n.links, netsim.NewLink(model, cfg.Scale))
	}
	clientModel, err := netsim.NewLognormal(cfg.HopMedian, netsim.WANSigma, cfg.Seed+uint64(cfg.Relays)+1)
	if err != nil {
		n.Close()
		return nil, err
	}
	n.clientLink = netsim.NewLink(clientModel, cfg.Scale)
	return n, nil
}

// Close stops all relays.
func (n *Network) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	for _, r := range n.relays {
		r.close()
	}
}

// pickRelays selects k distinct relays uniformly (the simplified path
// selection of the simulation).
func (n *Network) pickRelays(k int) ([]int, error) {
	if k > len(n.relays) {
		return nil, ErrNotEnough
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	perm := n.rng.Perm(len(n.relays))
	return perm[:k], nil
}

// Circuit is a client's established onion path.
type Circuit struct {
	network *Network
	id      uint64
	hops    []int
	keys    [][32]byte

	mu      sync.Mutex
	seq     uint64
	pending chan Cell
	reasm   *reassembler
	closed  bool
}

// BuildCircuit performs the per-hop handshakes and installs routing state.
// hops is typically 3 (guard, middle, exit).
func (n *Network) BuildCircuit(hops int) (*Circuit, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if hops < 1 {
		return nil, fmt.Errorf("tor: hops must be >= 1, got %d", hops)
	}
	idxs, err := n.pickRelays(hops)
	if err != nil {
		return nil, err
	}
	id := n.nextCirc.Add(1)
	c := &Circuit{
		network: n,
		id:      id,
		hops:    idxs,
		pending: make(chan Cell, 2048),
		reasm:   newReassembler(),
	}
	// Handshake with each hop (client pays one ECDH per hop, as in Tor's
	// telescoping build; the extend relaying itself is elided).
	for _, idx := range idxs {
		eph, err := ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("tor: client eph: %w", err)
		}
		relayEph, err := n.relays[idx].handshake(id, eph.PublicKey().Bytes())
		if err != nil {
			return nil, err
		}
		relayPub, err := ecdh.P256().NewPublicKey(relayEph)
		if err != nil {
			return nil, err
		}
		s1, err := eph.ECDH(relayPub)
		if err != nil {
			return nil, err
		}
		// Client side of ntor: second ECDH against the relay identity.
		s2, err := eph.ECDH(n.relays[idx].identity.PublicKey())
		if err != nil {
			return nil, err
		}
		key, err := deriveCircuitKey(s1, s2, id)
		if err != nil {
			return nil, err
		}
		c.keys = append(c.keys, key)
	}
	// Install routing: hop i forwards to hop i+1; backward path returns
	// toward the client, terminating in the circuit's pending channel.
	for pos, idx := range idxs {
		relay := n.relays[idx]
		var forward func(Cell)
		var exit ExitHandler
		if pos < len(idxs)-1 {
			next := n.relays[idxs[pos+1]]
			nextLink := n.links[idxs[pos+1]]
			forward = func(cell Cell) { next.submit(nextLink, relayTask{cell: cell}) }
		} else {
			exit = n.exit
			if exit == nil {
				exit = func([]byte) ([]byte, error) { return nil, nil }
			}
		}
		var back func(Cell)
		if pos > 0 {
			prev := n.relays[idxs[pos-1]]
			prevLink := n.links[idxs[pos-1]]
			back = func(cell Cell) { prev.submit(prevLink, relayTask{cell: cell, backward: true}) }
		} else {
			back = func(cell Cell) {
				// The guard -> client leg traverses the WAN too.
				go func() {
					n.clientLink.Wait()
					c.mu.Lock()
					closed := c.closed
					c.mu.Unlock()
					if closed {
						return
					}
					select {
					case c.pending <- cell:
					default: // drop on overflow, like a saturated link
					}
				}()
			}
		}
		if err := relay.configure(id, forward, back, exit); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Fetch sends one request payload through the circuit and waits for the
// complete response. One request may be in flight per circuit, matching
// Tor's stream semantics for a single synchronous query.
func (c *Circuit) Fetch(payload []byte, timeout time.Duration) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	startSeq := c.seq
	cells, err := packMessage(c.id, startSeq, payload)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.seq += uint64(len(cells))
	c.mu.Unlock()

	// Onion-wrap: innermost layer is the exit's; apply in reverse.
	firstIdx := c.hops[0]
	first := c.network.relays[firstIdx]
	firstLink := c.network.links[firstIdx]
	for _, cell := range cells {
		wrapped := cell
		for i := len(c.keys) - 1; i >= 0; i-- {
			if err := cryptCellBody(c.keys[i], dirForward, &wrapped); err != nil {
				return nil, err
			}
		}
		first.submit(firstLink, relayTask{cell: wrapped})
	}

	// Collect the response, unwrapping all layers per cell. Cells may
	// arrive reordered; the reassembler restores sequence order.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case cell := <-c.pending:
			for i := 0; i < len(c.keys); i++ {
				if err := cryptCellBody(c.keys[i], dirBackward, &cell); err != nil {
					return nil, err
				}
			}
			resp, complete := c.reasm.Add(cell)
			if !complete {
				continue
			}
			if len(resp) == 1 && resp[0] == 0 {
				resp = nil // empty-message placeholder
			}
			return resp, nil
		case <-deadline.C:
			return nil, fmt.Errorf("tor: fetch timed out after %v", timeout)
		}
	}
}

// Close tears the circuit down on all hops.
func (c *Circuit) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, idx := range c.hops {
		c.network.relays[idx].teardown(c.id)
	}
}
