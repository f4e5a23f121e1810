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
package sies

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"sync"
)

// KeySize is the secret key length in bytes.
const KeySize = 32

// Cipher encrypts and decrypts values in Z_M under per-nonce additive pads.
type Cipher struct {
	key  []byte
	m    *big.Int
	mask *big.Int  // m − 1 when m is a power of two (SDB's 2^62): reduce by masking
	macs sync.Pool // keyed HMAC states (hash.Hash); keying one costs more than a pad
}

// New constructs a Cipher with the given secret key and modulus M.
// The key must be KeySize bytes and M must exceed 1.
func New(key []byte, m *big.Int) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("sies: key must be %d bytes, got %d", KeySize, len(key))
	}
	if m == nil || m.Cmp(big.NewInt(2)) < 0 {
		return nil, errors.New("sies: modulus must be at least 2")
	}
	c := &Cipher{key: append([]byte(nil), key...), m: new(big.Int).Set(m)}
	if m.TrailingZeroBits() == uint(m.BitLen()-1) {
		c.mask = new(big.Int).Sub(m, big.NewInt(1))
	}
	return c, nil
}

// GenerateKey draws a fresh random key.
func GenerateKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("sies: key generation: %w", err)
	}
	return key, nil
}

// M returns the ciphertext modulus.
func (c *Cipher) M() *big.Int { return new(big.Int).Set(c.m) }

// Key returns a copy of the secret key. The proxy persists it in its
// data-owner state file so a restarted proxy can decrypt row ids it
// encrypted before the restart.
func (c *Cipher) Key() []byte { return append([]byte(nil), c.key...) }

// reduce maps v into [0, M) in place. For a power-of-two M that is a mask
// (And is two's-complement on negative operands), with no division.
func (c *Cipher) reduce(v *big.Int) *big.Int {
	if c.mask != nil {
		return v.And(v, c.mask)
	}
	return v.Mod(v, c.m)
}

// pad derives the additive one-time pad for an item nonce. The pad is a
// pseudorandom element of Z_M obtained by expanding HMAC output until we
// have enough bits, then reducing; the two extra blocks of slack keep the
// reduction bias negligible.
func (c *Cipher) pad(nonce uint64) *big.Int {
	need := (c.m.BitLen() + 7) / 8 * 2 // double width to flatten mod bias
	if need < sha256.Size {
		need = sha256.Size
	}
	buf := make([]byte, 0, need+sha256.Size)
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	mac, _ := c.macs.Get().(hash.Hash)
	if mac == nil {
		mac = hmac.New(sha256.New, c.key)
	}
	defer c.macs.Put(mac)
	for counter := uint32(0); len(buf) < need; counter++ {
		mac.Reset()
		mac.Write(nb[:])
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], counter)
		mac.Write(cb[:])
		buf = mac.Sum(buf)
	}
	p := new(big.Int).SetBytes(buf[:need])
	return c.reduce(p)
}

// Encrypt returns E(v) = v + pad(nonce) mod M. The nonce must be unique per
// item (SDB uses the row's position in the upload stream); reusing a nonce
// for two different values reveals their difference, exactly as pad reuse
// does in the original scheme.
func (c *Cipher) Encrypt(v *big.Int, nonce uint64) (*big.Int, error) {
	if v.Sign() < 0 || v.Cmp(c.m) >= 0 {
		return nil, fmt.Errorf("sies: plaintext %s outside [0, M)", v)
	}
	e := new(big.Int).Add(v, c.pad(nonce))
	return c.reduce(e), nil
}

// Decrypt inverts Encrypt for the same nonce.
func (c *Cipher) Decrypt(e *big.Int, nonce uint64) (*big.Int, error) {
	if e.Sign() < 0 || e.Cmp(c.m) >= 0 {
		return nil, fmt.Errorf("sies: ciphertext %s outside [0, M)", e)
	}
	v := new(big.Int).Sub(e, c.pad(nonce))
	return c.reduce(v), nil
}

// DecryptSum recovers the sum of plaintexts from the modular sum of
// ciphertexts encrypted under the given nonces — the homomorphic property
// the original paper is named for.
func (c *Cipher) DecryptSum(sum *big.Int, nonces []uint64) (*big.Int, error) {
	if sum.Sign() < 0 || sum.Cmp(c.m) >= 0 {
		return nil, fmt.Errorf("sies: ciphertext sum %s outside [0, M)", sum)
	}
	v := new(big.Int).Set(sum)
	for _, nonce := range nonces {
		v.Sub(v, c.pad(nonce))
	}
	return c.reduce(v), nil
}
