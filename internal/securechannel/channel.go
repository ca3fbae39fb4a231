package securechannel

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Errors returned by the channel.
var (
	ErrReplay      = errors.New("securechannel: record replayed or reordered")
	ErrCorrupt     = errors.New("securechannel: record corrupt")
	ErrShortRecord = errors.New("securechannel: record too short")
	ErrRole        = errors.New("securechannel: both peers have the same role")
)

// Role distinguishes the two ends of the handshake so key derivation is
// asymmetric (client-to-server and server-to-client keys differ).
type Role int

// Handshake roles.
const (
	RoleClient Role = iota + 1
	RoleServer
)

// Offer is the public handshake message each side sends.
type Offer struct {
	Role   Role   `json:"role"`
	PubKey []byte `json:"pub_key"` // P-256 point, SEC1 uncompressed
	Nonce  []byte `json:"nonce"`   // 16-byte freshness
}

// Marshal serializes the offer.
func (o Offer) Marshal() ([]byte, error) { return json.Marshal(o) }

// UnmarshalOffer parses an offer.
func UnmarshalOffer(data []byte) (Offer, error) {
	var o Offer
	if err := json.Unmarshal(data, &o); err != nil {
		return o, fmt.Errorf("securechannel: parse offer: %w", err)
	}
	return o, nil
}

// Handshake holds one side's ephemeral ECDH state.
type Handshake struct {
	role  Role
	priv  *ecdh.PrivateKey
	nonce [16]byte
}

// NewHandshake generates an ephemeral P-256 key pair for the given role.
func NewHandshake(role Role) (*Handshake, error) {
	if role != RoleClient && role != RoleServer {
		return nil, fmt.Errorf("securechannel: invalid role %d", role)
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("securechannel: generate key: %w", err)
	}
	h := &Handshake{role: role, priv: priv}
	if _, err := rand.Read(h.nonce[:]); err != nil {
		return nil, fmt.Errorf("securechannel: nonce: %w", err)
	}
	return h, nil
}

// Offer returns this side's handshake message.
func (h *Handshake) Offer() Offer {
	return Offer{Role: h.role, PubKey: h.priv.PublicKey().Bytes(), Nonce: h.nonce[:]}
}

// PublicKeyBytes returns the local public key; the enclave binds this value
// into its attestation report data (see attestation.BindKey).
func (h *Handshake) PublicKeyBytes() []byte { return h.priv.PublicKey().Bytes() }

// Complete combines the peer's offer with local state into a Channel.
// Both sides derive the same pair of direction keys; each Channel sends
// with its own direction key and receives with the peer's.
func (h *Handshake) Complete(peer Offer) (*Channel, error) {
	if peer.Role == h.role {
		return nil, ErrRole
	}
	peerPub, err := ecdh.P256().NewPublicKey(peer.PubKey)
	if err != nil {
		return nil, fmt.Errorf("securechannel: peer key: %w", err)
	}
	secret, err := h.priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("securechannel: ecdh: %w", err)
	}
	// Transcript ordered client-first so both sides agree.
	var clientPub, serverPub, clientNonce, serverNonce []byte
	if h.role == RoleClient {
		clientPub, serverPub = h.PublicKeyBytes(), peer.PubKey
		clientNonce, serverNonce = h.nonce[:], peer.Nonce
	} else {
		clientPub, serverPub = peer.PubKey, h.PublicKeyBytes()
		clientNonce, serverNonce = peer.Nonce, h.nonce[:]
	}
	transcript := sha256.New()
	transcript.Write(clientPub)
	transcript.Write(serverPub)
	transcript.Write(clientNonce)
	transcript.Write(serverNonce)
	salt := transcript.Sum(nil)

	c2s, err := DeriveKey(secret, salt, []byte("xsearch c2s"), 32)
	if err != nil {
		return nil, err
	}
	s2c, err := DeriveKey(secret, salt, []byte("xsearch s2c"), 32)
	if err != nil {
		return nil, err
	}
	var sendKey, recvKey []byte
	if h.role == RoleClient {
		sendKey, recvKey = c2s, s2c
	} else {
		sendKey, recvKey = s2c, c2s
	}
	return newChannel(sendKey, recvKey)
}

// Channel is one direction-aware end of an established secure channel.
// It is safe for concurrent use: records sealed concurrently may be opened
// in any order as long as none arrives replayWindow or more sequence
// numbers behind the newest one seen.
type Channel struct {
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD

	mu       sync.Mutex
	sendSeq  uint64
	recvHigh uint64 // highest sequence accepted
	// recvSeen is the anti-replay bitmap, a ring of 64-sequence blocks:
	// sequence s, while inside the window, owns bit s%64 of block
	// (s/64)%replayBlocks (RFC 6479 — the window slides by clearing
	// blocks, never by shifting).
	recvSeen [replayBlocks]uint64
}

const (
	replayBlocks = 16
	// replayWindow is how far behind the newest accepted record a late one
	// may still arrive: the sliding anti-replay window of RFC 4303 §3.4.3,
	// one block short of the ring so the block being filled never holds
	// stale bits. Both carriers reorder in flight — a goroutine per mux
	// stream; over HTTP a caller stuck dialing a fresh conn while the
	// others run on, measured up to 176 records behind with 8 callers —
	// so the customary 64 is too narrow here.
	replayWindow = (replayBlocks - 1) * 64
	// nonceSize and tagSize are the standard GCM lengths cipher.NewGCM
	// fixes.
	nonceSize = 12
	tagSize   = 16
)

// The in-place record layout: what SealAt's caller leaves in front of the
// plaintext, and how much spare capacity after it lets SealAt seal without
// growing the buffer — the tag, then the nonce while it seals.
const (
	HeaderSize = 8
	SealRoom   = tagSize + nonceSize
)

func newChannel(sendKey, recvKey []byte) (*Channel, error) {
	mk := func(key []byte) (cipher.AEAD, error) {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, fmt.Errorf("securechannel: cipher: %w", err)
		}
		return cipher.NewGCM(block)
	}
	send, err := mk(sendKey)
	if err != nil {
		return nil, err
	}
	recv, err := mk(recvKey)
	if err != nil {
		return nil, err
	}
	return &Channel{sendAEAD: send, recvAEAD: recv}, nil
}

// Seal encrypts plaintext into a new record, seq(8) || ciphertext || tag,
// in one allocation. The sequence number doubles as GCM nonce material and
// replay ordinal.
func (c *Channel) Seal(plaintext []byte) ([]byte, error) {
	buf := make([]byte, HeaderSize, HeaderSize+len(plaintext)+SealRoom)
	return c.SealAt(append(buf, plaintext...), 0), nil
}

// SealAt seals the record that starts at buf[at] where it lies: the
// HeaderSize bytes there are its sequence slot, everything after them its
// plaintext, and buf[:at] — the frame the record rides in — is left alone.
// It returns buf extended by the tag, grown append-style only when less
// than SealRoom of spare capacity is left. The nonce sits in that spare
// capacity past the tag while the record is sealed (a local array would
// escape through the AEAD interface and cost an allocation).
func (c *Channel) SealAt(buf []byte, at int) []byte {
	c.mu.Lock()
	c.sendSeq++
	seq := c.sendSeq
	c.mu.Unlock()

	size := len(buf) + tagSize
	buf = slices.Grow(buf, SealRoom)
	nonce := buf[size : size+nonceSize]
	clear(nonce[:nonceSize-8])
	binary.BigEndian.PutUint64(nonce[nonceSize-8:], seq)
	rec := buf[at:]
	binary.BigEndian.PutUint64(rec, seq)
	c.sendAEAD.Seal(rec[:HeaderSize], nonce, rec[HeaderSize:], rec[:HeaderSize])
	return buf[:size]
}

// Open authenticates and decrypts a copy of record, which it leaves as it
// is: the form for a record in memory the opener does not own.
func (c *Channel) Open(record []byte) ([]byte, error) {
	return c.OpenInPlace(bytes.Clone(record))
}

// nonces lends OpenInPlace its nonce: a record's buffer has no room of the
// opener's to spare, and a local array would escape through the AEAD
// interface.
var nonces = sync.Pool{New: func() any { return new([nonceSize]byte) }}

// OpenInPlace authenticates and decrypts record where it lies and enforces
// anti-replay: every sequence number is accepted at most once, and one that
// trails the newest accepted by replayWindow or more is refused unseen. The
// plaintext it returns overwrites the ciphertext (it aliases
// record[HeaderSize:]), and a refused record is left scrambled — so only the
// owner of record's memory may call it (the package comment says who).
func (c *Channel) OpenInPlace(record []byte) ([]byte, error) {
	if len(record) < HeaderSize {
		return nil, ErrShortRecord
	}
	seq := binary.BigEndian.Uint64(record)
	nonce := nonces.Get().(*[nonceSize]byte) // its first four bytes stay zero
	binary.BigEndian.PutUint64(nonce[nonceSize-8:], seq)
	ct := record[HeaderSize:]
	pt, err := c.recvAEAD.Open(ct[:0], nonce[:], ct, record[:HeaderSize])
	nonces.Put(nonce)
	if err != nil {
		return nil, ErrCorrupt
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	block, bit := seq/64, uint64(1)<<(seq%64)
	if seq > c.recvHigh {
		// Slide: every block between the old newest and this one starts
		// empty (all of them, when the jump laps the ring).
		for b := block; b > c.recvHigh/64 && b+replayBlocks > block; b-- {
			c.recvSeen[b%replayBlocks] = 0
		}
		c.recvHigh = seq
	} else if seq == 0 || c.recvHigh-seq >= replayWindow || c.recvSeen[block%replayBlocks]&bit != 0 {
		return nil, ErrReplay
	}
	c.recvSeen[block%replayBlocks] |= bit
	return pt, nil
}
