// Package tor implements the onion-routing baseline the paper compares
// against (§5.2): a directory of relays, 3-hop circuits built with
// per-hop ECDH handshakes (ntor-style), layered AES-CTR encryption over
// fixed-size 512-byte cells, single-threaded relay crypto loops (the
// dominant throughput bottleneck of 2017-era Tor relays), a WAN latency
// model per hop, and an exit node that performs the actual web-search
// fetch. It provides unlinkability only — no query obfuscation — which is
// exactly the configuration Figures 3 (k=0), 5 and 7 measure.
package tor

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// CellSize is Tor's fixed cell size in bytes.
const CellSize = 512

// cellHeader is circuitID(8) + seq(8) + flags(1) + payloadLen(2).
const cellHeader = 8 + 8 + 1 + 2

// MaxCellPayload is the usable payload per cell.
const MaxCellPayload = CellSize - cellHeader

// Cell flags.
const (
	flagData byte = 0
	flagEnd  byte = 1 // last cell of a message
)

// Cell is one fixed-size onion cell.
type Cell [CellSize]byte

func (c *Cell) circuitID() uint64     { return binary.BigEndian.Uint64(c[0:8]) }
func (c *Cell) seq() uint64           { return binary.BigEndian.Uint64(c[8:16]) }
func (c *Cell) flags() byte           { return c[16] }
func (c *Cell) payloadLen() int       { return int(binary.BigEndian.Uint16(c[17:19])) }
func (c *Cell) payload() []byte       { return c[cellHeader : cellHeader+c.payloadLen()] }
func (c *Cell) setCircuitID(v uint64) { binary.BigEndian.PutUint64(c[0:8], v) }
func (c *Cell) setSeq(v uint64)       { binary.BigEndian.PutUint64(c[8:16], v) }
func (c *Cell) setFlags(f byte)       { c[16] = f }

func (c *Cell) setPayload(p []byte) error {
	if len(p) > MaxCellPayload {
		return fmt.Errorf("tor: payload %d exceeds cell capacity", len(p))
	}
	binary.BigEndian.PutUint16(c[17:19], uint16(len(p)))
	copy(c[cellHeader:], p)
	return nil
}

// packMessage splits a message into cells for the given circuit.
func packMessage(circuitID uint64, startSeq uint64, msg []byte) ([]Cell, error) {
	if len(msg) == 0 {
		msg = []byte{0}
	}
	var cells []Cell
	seq := startSeq
	for off := 0; off < len(msg); off += MaxCellPayload {
		end := off + MaxCellPayload
		last := false
		if end >= len(msg) {
			end = len(msg)
			last = true
		}
		var c Cell
		c.setCircuitID(circuitID)
		c.setSeq(seq)
		if last {
			c.setFlags(flagEnd)
		} else {
			c.setFlags(flagData)
		}
		if err := c.setPayload(msg[off:end]); err != nil {
			return nil, err
		}
		cells = append(cells, c)
		seq++
	}
	return cells, nil
}

// unpackMessage reassembles a message from ordered cells ending in flagEnd.
func unpackMessage(cells []Cell) []byte {
	var out []byte
	for i := range cells {
		out = append(out, cells[i].payload()...)
	}
	return out
}

// reassembler rebuilds messages from cells that may arrive out of order
// (WAN links reorder). Cells carry consecutive sequence numbers from 0; a
// message spans base..endSeq where the endSeq cell carries flagEnd.
type reassembler struct {
	base  uint64
	cells map[uint64]Cell
	end   uint64
	seen  bool // an end cell has arrived
}

func newReassembler() *reassembler {
	return &reassembler{cells: make(map[uint64]Cell)}
}

// Add registers a cell; when the message is complete it returns it and
// resets for the next message (contiguous sequence space).
func (ra *reassembler) Add(c Cell) ([]byte, bool) {
	ra.cells[c.seq()] = c
	if c.flags()&flagEnd != 0 {
		ra.end = c.seq()
		ra.seen = true
	}
	if !ra.seen {
		return nil, false
	}
	for s := ra.base; s <= ra.end; s++ {
		if _, ok := ra.cells[s]; !ok {
			return nil, false
		}
	}
	ordered := make([]Cell, 0, ra.end-ra.base+1)
	for s := ra.base; s <= ra.end; s++ {
		ordered = append(ordered, ra.cells[s])
		delete(ra.cells, s)
	}
	ra.base = ra.end + 1
	ra.seen = false
	return unpackMessage(ordered), true
}

// cryptCellBody applies AES-CTR over a cell's body (everything after the
// circuit ID, which must stay routable). The keystream is keyed per hop and
// the IV derives from (circuitID, seq, direction) so both endpoints compute
// identical streams without transmitting IVs.
func cryptCellBody(key [32]byte, direction byte, c *Cell) error {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return fmt.Errorf("tor: cipher: %w", err)
	}
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[0:8], c.circuitID())
	binary.BigEndian.PutUint64(iv[8:16], c.seq())
	iv[0] ^= direction
	stream := cipher.NewCTR(block, iv[:])
	// Encrypt flags, length and payload; seq stays visible for IV
	// derivation (Tor similarly keeps relay headers inside the onion but
	// we trade that detail for deterministic IVs).
	stream.XORKeyStream(c[16:], c[16:])
	return nil
}

// Directions for IV separation.
const (
	dirForward  byte = 0x00
	dirBackward byte = 0x80
)
