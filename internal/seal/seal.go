// Package seal implements SGX-style sealed storage: enclave state encrypted
// under a key derived from the platform fuse key and the enclave identity,
// so only the same enclave (PolicyMRENCLAVE) or the same vendor's enclaves
// (PolicyMRSIGNER) on the same machine can recover it. X-Search uses it to
// persist the past-query history across proxy restarts without ever
// exposing plaintext queries to the untrusted host.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"

	"xsearch/internal/enclave"
)

// Errors returned by unsealing.
var (
	ErrCorrupt  = errors.New("seal: blob corrupt or wrong key")
	ErrTooShort = errors.New("seal: blob too short")
)

// Sealer binds AES-256-GCM sealed blobs to an enclave identity.
type Sealer struct {
	key    [32]byte
	policy enclave.SealKeyPolicy
}

// New derives a sealer for enclave e on platform p under the given policy.
// keyID allows multiple independent sealing keys per enclave.
func New(p *enclave.Platform, e *enclave.Enclave, policy enclave.SealKeyPolicy, keyID [16]byte) (*Sealer, error) {
	key, err := p.SealingKey(e, policy, keyID)
	if err != nil {
		return nil, fmt.Errorf("seal: derive key: %w", err)
	}
	return &Sealer{key: key, policy: policy}, nil
}

// Seal encrypts plaintext with the sealing key. aad is authenticated but
// not encrypted (e.g. a version tag). Output layout: nonce || ciphertext.
func (s *Sealer) Seal(plaintext, aad []byte) ([]byte, error) {
	block, err := aes.NewCipher(s.key[:])
	if err != nil {
		return nil, fmt.Errorf("seal: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("seal: nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, aad), nil
}

// Unseal decrypts a sealed blob, verifying integrity and aad.
func (s *Sealer) Unseal(blob, aad []byte) ([]byte, error) {
	block, err := aes.NewCipher(s.key[:])
	if err != nil {
		return nil, fmt.Errorf("seal: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: gcm: %w", err)
	}
	if len(blob) < gcm.NonceSize() {
		return nil, ErrTooShort
	}
	nonce, ct := blob[:gcm.NonceSize()], blob[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, aad)
	if err != nil {
		return nil, ErrCorrupt
	}
	return pt, nil
}
