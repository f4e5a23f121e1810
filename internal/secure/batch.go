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
// mod n. It errors where ApplyToken returns nil (negative Q with a
// non-invertible helper), and on a length mismatch. It is a loop over ApplyToken, kept because the benchmark module
// (bench/layers.go) times it; ROADMAP item 1(b) re-seats that loop.
func ApplyTokenBatch(t Token, ves, ws []*big.Int, n *big.Int) ([]*big.Int, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	if len(ves) != len(ws) {
		return nil, fmt.Errorf("secure: batch length mismatch: %d shares, %d helpers", len(ves), len(ws))
	}
	out := make([]*big.Int, len(ws))
	for i, w := range ws {
		if out[i] = ApplyToken(t, ves[i], w, n); out[i] == nil {
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

// EncryptBatch mints all requested shares with ONE modular inversion, in
// the Montgomery domain: each request's item key m·h^r is its column key's
// ToMont(m) walked through h's comb table (the table and ToMont(m)
// resolved once per distinct column key in the batch — an INSERT chunk
// has a handful), the keys are inverted together (InvertAll: prefix
// products, one ModInverse, two multiplies back per key) in the kernel's
// pooled scratch, and each share is one REDC of its inverse with the
// encoded value, which lands in the normal domain. Semantically identical
// to calling Encrypt/EncryptMask per request; an error means some item
// key shared a factor with n (degenerate column key), the same condition
// the scalar paths report per share.
func (s *Secret) EncryptBatch(reqs []EncRequest) ([]*big.Int, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	n, k := s.params.N, s.full
	if k.ctx == nil { // no Montgomery form: one inversion per share
		out := make([]*big.Int, len(reqs))
		for i, rq := range reqs {
			inv, err := bigmod.Inv(s.itemKey(rq.Rid, rq.Key, nil), n)
			if err != nil {
				return nil, errItemKey(err)
			}
			out[i] = bigmod.Mul(rq.Enc, inv, n)
		}
		return out, nil
	}
	mc, w := k.ctx, k.ctx.Words()
	ks := k.scratch()
	defer k.pool.Put(ks)
	if cap(ks.vks) < len(reqs)*w {
		ks.vks = make([]big.Word, len(reqs)*w)
	}
	ks.views = ks.views[:0]
	type resolved struct {
		x  *big.Int
		t  *bigmod.FixedBase
		mM []big.Word // ToMont(m)
	}
	var tables []resolved
	for i, rq := range reqs {
		j := 0
		for j < len(tables) && tables[j].x.Cmp(rq.Key.X) != 0 {
			j++
		}
		if j == len(tables) {
			tables = append(tables, resolved{rq.Key.X, s.keyTable(k, rq.Key.X), mc.ToMont(ks.ms, rq.Key.M)})
		}
		vk := ks.vks[i*w : (i+1)*w : (i+1)*w]
		if tb := tables[j]; tb.t != nil && rq.Rid>>RowIDBits == 0 {
			copy(vk, tb.mM)
			e := wordsOf(rq.Rid)
			tb.t.MulExpTo(ks.ms, vk, e[:])
		} else { // flat and malformed keys, wide row ids: square-and-multiply
			copy(vk, mc.ToMont(ks.ms, s.itemKey(rq.Rid, rq.Key, nil)))
		}
		ks.views = append(ks.views, vk)
	}
	if !mc.InvertAll(ks.ms, ks.views) {
		return nil, errItemKey(bigmod.ErrNotInvertible)
	}
	out := make([]*big.Int, len(reqs))
	ints := make([]big.Int, len(reqs))
	slab := make([]big.Word, len(reqs)*w)
	for i, rq := range reqs {
		z := slab[i*w : (i+1)*w : (i+1)*w]
		mc.MulBig(ks.ms, z, ks.views[i], rq.Enc) // vk⁻¹·R ⊙ enc = enc·vk⁻¹
		out[i] = ints[i].SetBits(z)
	}
	return out, nil
}

// errItemKey is the failure of an item key that shares a factor with n.
func errItemKey(err error) error {
	return fmt.Errorf("secure: item key not invertible (degenerate column key?): %w", err)
}
