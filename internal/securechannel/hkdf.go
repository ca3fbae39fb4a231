// Package securechannel provides the encrypted tunnel between the client
// broker and the X-Search enclave (§4.2): an ECDH(P-256) handshake whose
// server key is bound to the enclave's attestation report, HKDF-SHA256 key
// derivation, and an AES-256-GCM record layer with strict sequence numbers
// (replay protection). Queries are "encrypted while outside the enclave,
// and only accessible as plain text from within".
//
// A record has one seal and one open. SealAt and OpenInPlace work where the
// record lies, so a frame that carries it need not be copied to seal or
// open it; Seal and Open are the same over a copy. Sealing in place is
// always safe — the plaintext is the sealer's own and leaves as ciphertext.
// Opening in place writes the plaintext over the record, so only a holder
// of the record's memory inside the reader's trust domain may do it: the
// broker does, in the read buffer or frame payload it owns. The enclave may
// not: a request record it receives aliases the host's ecall argument, and
// opening it there would leave the query in host memory in the clear. It
// opens with Open, into memory of its own.
package securechannel

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
)

// hkdfExtract implements RFC 5869 HKDF-Extract with SHA-256.
func hkdfExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// hkdfExpand implements RFC 5869 HKDF-Expand with SHA-256.
func hkdfExpand(prk, info []byte, length int) ([]byte, error) {
	const hashLen = sha256.Size
	if length > 255*hashLen {
		return nil, fmt.Errorf("securechannel: hkdf expand length %d too large", length)
	}
	var out, t []byte
	for counter := byte(1); len(out) < length; counter++ {
		mac := hmac.New(sha256.New, prk)
		mac.Write(t)
		mac.Write(info)
		mac.Write([]byte{counter})
		t = mac.Sum(nil)
		out = append(out, t...)
	}
	return out[:length], nil
}

// DeriveKey derives a length-byte key from secret, salt and context info.
func DeriveKey(secret, salt, info []byte, length int) ([]byte, error) {
	return hkdfExpand(hkdfExtract(salt, secret), info, length)
}
