package secure

import (
	"fmt"
	"math/big"

	"sdb/internal/bigmod"
)

// Batch entry points: EncryptBatch mints an INSERT chunk's shares with
// one modular inversion, and ApplyTokenBatch applies one token to many
// rows. The engine applies tokens in row programs
// (internal/engine/shareprog.go), not through either.

// ApplyTokenBatch transforms rows i ∈ [0, len(ws)): out[i] = P·ves[i]·ws[i]^Q
// mod n. For Base tokens ves may be nil. It errors where ApplyToken returns
// nil (negative Q with a non-invertible helper), and on a length mismatch.
// It is a loop over ApplyToken, kept because the benchmark module
// (bench/layers.go) times it; ROADMAP item 1(b) re-seats that loop.
func ApplyTokenBatch(t Token, ves, ws []*big.Int, n *big.Int) ([]*big.Int, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	if !t.Base && len(ves) != len(ws) {
		return nil, fmt.Errorf("secure: batch length mismatch: %d shares, %d helpers", len(ves), len(ws))
	}
	out := make([]*big.Int, len(ws))
	for i, w := range ws {
		var ve *big.Int
		if !t.Base {
			ve = ves[i]
		}
		if out[i] = ApplyToken(t, ve, w, n); out[i] == nil {
			return nil, errNotInvertible()
		}
	}
	return out, nil
}

// EncRequest is one share to mint on the encrypt side: a domain-encoded
// residue to divide by the item key of (Rid, Key). Batching requests lets
// the proxy amortize the per-share ModInverse across an INSERT chunk.
type EncRequest struct {
	Enc *big.Int
	Rid RowID
	Key ColumnKey
}

// NewEncRequest builds the request encrypting signed value v (Def. 2
// numerator, domain-encoded with the same bound check as Encrypt).
func (s *Secret) NewEncRequest(v *big.Int, r RowID, ck ColumnKey) (EncRequest, error) {
	enc, err := s.domain.Encode(v)
	if err != nil {
		return EncRequest{}, err
	}
	return EncRequest{Enc: enc, Rid: r, Key: ck}, nil
}

// NewMaskEncRequest builds the request encrypting a comparison mask,
// with EncryptMask's bound check (masks bypass the signed domain).
func (s *Secret) NewMaskEncRequest(mask *big.Int, r RowID, ck ColumnKey) (EncRequest, error) {
	if mask.Sign() <= 0 || mask.Cmp(s.maskBound()) >= 0 {
		return EncRequest{}, fmt.Errorf("secure: mask <%d bits> outside [1, 2^%d)", mask.BitLen(), s.maskWidth)
	}
	return EncRequest{Enc: mask, Rid: r, Key: ck}, nil
}

// EncryptBatch mints all requested shares with ONE modular inversion:
// item keys are derived per request through the column keys' comb tables,
// each resolved once per distinct key in the batch (an INSERT chunk has a
// handful), then inverted together with Montgomery's batch trick.
// Semantically identical to calling Encrypt/EncryptMask per request; an
// error means some item key shared a factor with n (degenerate column
// key), the same condition the scalar paths report per share.
func (s *Secret) EncryptBatch(reqs []EncRequest) ([]*big.Int, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	type resolved struct {
		x *big.Int
		t *bigmod.FixedBase
	}
	var tables []resolved
	vks := make([]*big.Int, len(reqs))
	for i, rq := range reqs {
		j := 0
		for j < len(tables) && tables[j].x.Cmp(rq.Key.X) != 0 {
			j++
		}
		if j == len(tables) {
			tables = append(tables, resolved{rq.Key.X, s.keyTable(s.full, rq.Key.X)})
		}
		vks[i] = s.itemKey(rq.Rid, rq.Key, tables[j].t)
	}
	invs, err := bigmod.BatchInv(vks, s.params.N)
	if err != nil {
		return nil, fmt.Errorf("secure: item key not invertible (degenerate column key?): %w", err)
	}
	out := make([]*big.Int, len(reqs))
	for i, rq := range reqs {
		out[i] = bigmod.Mul(rq.Enc, invs[i], s.params.N)
	}
	return out, nil
}
