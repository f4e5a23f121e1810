// Package baseline models the CryptDB/MONOMI onion-encryption approach the
// paper compares against (§1): each sensitive column is wrapped in onions —
// RND (semantic security at rest), DET (equality), OPE (order), HOM
// (Paillier, addition) — and each SQL operator is only executable if some
// onion supports it. Because onions are *not* data interoperable (the
// output of a HOM addition cannot feed an OPE comparison, a DET equality
// cannot feed a HOM sum, and no onion multiplies two encrypted columns),
// complex analytical queries fall back to the client. The onions are
// modelled by the coverage rules in coverage.go, not implemented; over
// TPC-H they reproduce the paper's "CryptDB supports 4 of 22 queries
// natively" claim. The one onion cipher implemented is DET, for the
// banking example's chosen-plaintext attack on an equality layer.
package baseline

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// DET is a deterministic cipher over int64 values: AES of the fixed-width
// encoding. Equal plaintexts produce equal ciphertexts — exactly the
// equality leak SDB's flatten operator incurs per query, but at rest and
// forever.
type DET struct {
	block cipher.Block
}

// NewDET creates a deterministic cipher from a 16/24/32-byte key.
func NewDET(key []byte) (*DET, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("baseline: DET key: %w", err)
	}
	return &DET{block: block}, nil
}

// Encrypt maps an int64 to a 16-byte deterministic ciphertext.
func (d *DET) Encrypt(v int64) [16]byte {
	var in, out [16]byte
	binary.BigEndian.PutUint64(in[8:], uint64(v))
	d.block.Encrypt(out[:], in[:])
	return out
}
