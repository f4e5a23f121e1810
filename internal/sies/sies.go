// Package sies reimplements the additively homomorphic encryption scheme of
// Papadopoulos, Kiayias and Papadias, "Secure and efficient in-network
// processing of exact SUM queries" (ICDE 2011), which SDB uses to encrypt
// row ids at the service provider (paper §2.1).
//
// SIES encrypts a value v under a per-item one-time pad derived from a
// secret key and a unique item nonce: E(v) = v + PRF(key, nonce) mod M.
// Decryption subtracts the pad. Because pads are additive, sums of
// ciphertexts decrypt to sums of plaintexts when the corresponding pads are
// subtracted, which is the "exact sum query" property of the original paper.
//
// The original instantiates the PRF with a stream cipher; we use
// HMAC-SHA-256 from the standard library, which preserves the
// pseudorandom-pad structure the scheme relies on.
//
// M is a power of two no wider than a machine word (SDB encrypts 62-bit row
// ids under M = 2^62), so values, ciphertexts and pads are uint64s and
// reduction is a mask. The pad is the 32-byte HMAC block read as one
// big-endian integer and reduced modulo M — for such an M, its last eight
// bytes masked. Row ids stored at an SP are encrypted under exactly that
// pad, so it must not change (TestGoldenVectors).
package sies

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// KeySize is the secret key length in bytes.
const KeySize = 32

// Cipher encrypts and decrypts values in Z_M, M = 2^bits, under per-nonce
// additive pads. It is safe for concurrent use.
type Cipher struct {
	key  []byte
	mask uint64    // M − 1
	pads sync.Pool // *padState: keying an HMAC costs more than a pad
}

// padState is the pooled working memory of one pad: a keyed HMAC and the
// buffers it reads and writes, heap-resident so no call allocates.
type padState struct {
	mac hash.Hash
	in  [12]byte // nonce, then the block counter (always 0: one block suffices)
	out [sha256.Size]byte
}

// New constructs a Cipher with the given secret key over M = 2^bits. The
// key must be KeySize bytes and bits in [1, 64].
func New(key []byte, bits int) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("sies: key must be %d bytes, got %d", KeySize, len(key))
	}
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("sies: modulus width %d outside [1, 64] bits", bits)
	}
	return &Cipher{key: append([]byte(nil), key...), mask: ^uint64(0) >> (64 - bits)}, nil
}

// GenerateKey draws a fresh random key.
func GenerateKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("sies: key generation: %w", err)
	}
	return key, nil
}

// Key returns a copy of the secret key. The proxy persists it in its
// data-owner state file so a restarted proxy can decrypt row ids it
// encrypted before the restart.
func (c *Cipher) Key() []byte { return append([]byte(nil), c.key...) }

// pad derives the additive one-time pad of an item nonce: HMAC-SHA-256 of
// the nonce and a zero block counter, reduced modulo M.
func (c *Cipher) pad(nonce uint64) uint64 {
	ps, _ := c.pads.Get().(*padState)
	if ps == nil {
		ps = &padState{mac: hmac.New(sha256.New, c.key)}
	}
	ps.mac.Reset()
	binary.BigEndian.PutUint64(ps.in[:8], nonce)
	ps.mac.Write(ps.in[:])
	p := binary.BigEndian.Uint64(ps.mac.Sum(ps.out[:0])[sha256.Size-8:]) & c.mask
	c.pads.Put(ps)
	return p
}

// Errors name the bound, never the value: a plaintext is a row id, and a
// ciphertext is one once the pad is known.
var (
	errPlaintext  = errors.New("sies: plaintext outside [0, M)")
	errCiphertext = errors.New("sies: ciphertext outside [0, M)")
)

// Encrypt returns E(v) = v + pad(nonce) mod M. The nonce must be unique per
// item (SDB uses the row's position in the upload stream); reusing a nonce
// for two different values reveals their difference, exactly as pad reuse
// does in the original scheme.
func (c *Cipher) Encrypt(v, nonce uint64) (uint64, error) {
	if v > c.mask {
		return 0, errPlaintext
	}
	return (v + c.pad(nonce)) & c.mask, nil
}

// Decrypt inverts Encrypt for the same nonce. Chained over several nonces
// it recovers a sum of plaintexts from the modular sum of their
// ciphertexts: pads are additive.
func (c *Cipher) Decrypt(e, nonce uint64) (uint64, error) {
	if e > c.mask {
		return 0, errCiphertext
	}
	return (e - c.pad(nonce)) & c.mask, nil
}
