package secure

import (
	"fmt"
	"math/big"
	"sync"

	"sdb/internal/bigmod"
)

// Batch token application.
//
// ApplyToken pays per row for work that is constant per token: reducing
// and multiplying by P, and resolving where powers of the token's exponent
// are memoised. A TokenApplier hoists the per-token work — the Montgomery
// context, ToMont(P), |Q| and its sign, the exponent's table in the
// helper-power memo (powmemo.go) — and applies the token to many (ve, w)
// rows with:
//
//   - w^Q taken from the memo when this (helper, exponent) pair has been
//     raised before, by this statement or any earlier one; only a first
//     touch pays a square-and-multiply;
//   - the asymmetric Montgomery trick for the multiplies: montMul of a
//     Montgomery-form operand by a normal-form operand yields the
//     normal-form product in ONE REDC, so a non-Base row costs exactly
//     two REDCs after the power (⊙ve, then ⊙P) and a Base row one, with
//     zero trial divisions;
//   - Montgomery's batch-inversion trick for the first touches of a
//     negative-Q batch: one ModInverse plus three REDCs per row instead
//     of one ModInverse per row;
//   - no power at all for Q = 0 (the re-key of an already-flat share):
//     one REDC by P.
//
// An applier is immutable after construction and safe for concurrent use;
// scratch memory comes from an internal pool, so the chunk workers of a
// key-rotation UPDATE share one applier.

// TokenApplier applies one fixed token to many (ve, w) pairs.
type TokenApplier struct {
	tok  Token
	n    *big.Int
	ctx  *bigmod.MontCtx // nil for even/degenerate moduli → scalar fallback
	pM   []big.Word      // ToMont(P)
	qAbs *big.Int        // |Q|
	qNeg bool
	pows *PowerTable // memoised w^Q for this exponent; nil when Q = 0
	pool sync.Pool   // *applyScratch
}

type applyScratch struct {
	ms   *bigmod.MontScratch
	tmp  []big.Word // k limbs
	tmp2 []big.Word // k limbs
	buf  []big.Word // grown on demand (batch prefix products)
}

// NewTokenApplier hoists the per-token work for n. The token and modulus
// are captured by value/reference and must not be mutated afterwards.
func NewTokenApplier(t Token, n *big.Int) *TokenApplier {
	t = t.Clone()
	a := &TokenApplier{tok: t, n: n, qAbs: t.Q, qNeg: t.Q.Sign() < 0}
	if a.qNeg {
		a.qAbs = new(big.Int).Neg(t.Q)
	}
	if n != nil && n.Sign() > 0 {
		a.ctx = bigmod.MontCtxFor(n)
	}
	if a.ctx != nil {
		s := a.scratch() // pooled for the applications that follow
		a.pM = a.ctx.ToMont(s.ms, t.P)
		a.pool.Put(s)
		a.pows = newPowerTable(t.Q, a.ctx)
	}
	return a
}

// Token returns (a copy of) the applier's token.
func (a *TokenApplier) Token() Token { return a.tok.Clone() }

func (a *TokenApplier) scratch() *applyScratch {
	if s, ok := a.pool.Get().(*applyScratch); ok {
		return s
	}
	k := a.ctx.Words()
	return &applyScratch{
		ms:   a.ctx.NewScratch(),
		tmp:  make([]big.Word, k),
		tmp2: make([]big.Word, k),
	}
}

func (s *applyScratch) grow(k int) []big.Word {
	if cap(s.buf) < k {
		s.buf = make([]big.Word, k)
	}
	return s.buf[:k]
}

// errNotInvertible wraps the non-invertible-helper failure so batch and
// scalar paths report the same error class.
func errNotInvertible() error {
	return fmt.Errorf("secure: helper not invertible under negative-exponent token: %w",
		bigmod.ErrNotInvertible)
}

// applyPlain is the big.Int form of a token application, for moduli
// without a Montgomery context. It returns nil when Q is negative and w
// is not invertible.
func applyPlain(t Token, ve, w, n *big.Int) *big.Int {
	out := bigmod.Exp(w, t.Q, n)
	if out == nil {
		return nil
	}
	out = bigmod.Mul(out, t.P, n)
	if !t.Base {
		out = bigmod.Mul(out, ve, n)
	}
	return out
}

// finish computes the token output from yM = ToMont(w^Q) (nil when Q = 0,
// i.e. w^Q = 1) and ve, entirely with asymmetric (one-REDC) multiplies.
// The result is normal-domain.
func (a *TokenApplier) finish(s *applyScratch, yM []big.Word, ve *big.Int) *big.Int {
	switch {
	case a.tok.Base && yM == nil:
		return new(big.Int).Mod(a.tok.P, a.n)
	case a.tok.Base:
		// out = P·y: yM ⊙ P with P normal-form leaves the product in
		// the normal domain.
		a.ctx.MulBig(s.ms, s.tmp, yM, a.tok.P)
	case yM == nil:
		// out = pM ⊙ ve = P·ve (normal).
		a.ctx.MulBig(s.ms, s.tmp, a.pM, ve)
	default:
		// t = yM ⊙ ve = y·ve (normal); out = pM ⊙ t = P·y·ve (normal).
		a.ctx.MulBig(s.ms, s.tmp, yM, ve)
		a.ctx.MulTo(s.ms, s.tmp2, a.pM, s.tmp)
		s.tmp, s.tmp2 = s.tmp2, s.tmp
	}
	return new(big.Int).SetBits(append([]big.Word(nil), s.tmp...))
}

// Apply transforms a single row: out = P·ve·w^Q mod n (P·w^Q for Base
// tokens). It errors where ApplyToken returns nil (negative Q with a
// non-invertible helper).
func (a *TokenApplier) Apply(ve, w *big.Int) (*big.Int, error) {
	if a.ctx == nil {
		out := applyPlain(a.tok, ve, w, a.n)
		if out == nil {
			return nil, errNotInvertible()
		}
		return out, nil
	}
	s := a.scratch()
	defer a.pool.Put(s)
	if a.pows == nil {
		return a.finish(s, nil, ve), nil
	}
	var hits int64
	yM, err := a.pows.Lookup(s.ms, &hits, w)
	FlushHelperPowerHits(&hits)
	if err != nil {
		return nil, err
	}
	return a.finish(s, yM, ve), nil
}

// ApplyBatch transforms rows i ∈ [0, len(ws)): out[i] = P·ves[i]·ws[i]^Q
// mod n. For Base tokens ves may be nil. Negative-Q tokens amortize the
// inversions of the helpers not yet memoised across the whole batch (one
// ModInverse total); if ANY of those is non-invertible the batch errors,
// exactly as each scalar application would.
func (a *TokenApplier) ApplyBatch(ves, ws []*big.Int) ([]*big.Int, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	if !a.tok.Base && len(ves) != len(ws) {
		return nil, fmt.Errorf("secure: batch length mismatch: %d shares, %d helpers", len(ves), len(ws))
	}
	out := make([]*big.Int, len(ws))
	ve := func(i int) *big.Int {
		if a.tok.Base {
			return nil
		}
		return ves[i]
	}
	if a.ctx == nil {
		for i, w := range ws {
			if out[i] = applyPlain(a.tok, ve(i), w, a.n); out[i] == nil {
				return nil, errNotInvertible()
			}
		}
		return out, nil
	}
	s := a.scratch()
	defer a.pool.Put(s)
	yMs := make([][]big.Word, len(ws)) // all nil when Q = 0
	if a.pows != nil {
		if err := a.batchPowers(s, ws, yMs); err != nil {
			return nil, err
		}
	}
	// Two one-REDC multiplies per row (one for Base or Q = 0).
	for i := range ws {
		out[i] = a.finish(s, yMs[i], ve(i))
	}
	return out, nil
}

// batchPowers fills yMs[i] = ToMont(ws[i]^Q): memo hits first, then the
// misses raised to |Q|, inverted together when Q is negative, and
// memoised.
func (a *TokenApplier) batchPowers(s *applyScratch, ws []*big.Int, yMs [][]big.Word) error {
	var missed []int
	for i, w := range ws {
		if yMs[i] = a.pows.cached(w); yMs[i] == nil {
			yMs[i] = a.ctx.ToMont(s.ms, new(big.Int).Exp(w, a.qAbs, a.n))
			missed = append(missed, i)
		}
	}
	hits := int64(len(ws) - len(missed))
	FlushHelperPowerHits(&hits)
	powers.misses.Add(int64(len(missed)))
	if a.qNeg && len(missed) > 0 {
		// Only the fresh residues are inverted in place; memoised ones
		// are shared and immutable.
		fresh := make([][]big.Word, len(missed))
		for j, i := range missed {
			fresh[j] = yMs[i]
		}
		if err := a.batchInvMont(s, fresh, a.ctx.Words()); err != nil {
			return err
		}
	}
	for _, i := range missed {
		a.pows.memoise(ws[i], yMs[i])
	}
	return nil
}

// batchInvMont replaces each Montgomery residue yMs[i] with its modular
// inverse (still in the domain) using Montgomery's batch trick run
// entirely on REDC: prefix products in-domain, ONE ModInverse of the
// total, then a backward sweep — 3 REDCs per element + 1 inversion,
// versus one ModInverse per element on the scalar path.
func (a *TokenApplier) batchInvMont(s *applyScratch, yMs [][]big.Word, k int) error {
	n := len(yMs)
	// prefix[i] = ToMont(y_0·…·y_{i-1}); prefix[0] = ToMont(1).
	prefix := s.grow((n + 1) * k)
	copy(prefix[:k], a.ctx.One())
	for i := 0; i < n; i++ {
		a.ctx.MulTo(s.ms, prefix[(i+1)*k:(i+2)*k], prefix[i*k:(i+1)*k], yMs[i])
	}
	total := a.ctx.FromMont(s.ms, prefix[n*k:(n+1)*k])
	if total.ModInverse(total, a.n) == nil {
		return errNotInvertible()
	}
	// accM = ToMont((y_i·…·y_{n-1})⁻¹), walking i downward:
	// y_i⁻¹ = acc·prefix_i, then acc ← acc·y_i.
	accM := a.ctx.ToMont(s.ms, total)
	for i := n - 1; i >= 0; i-- {
		a.ctx.MulTo(s.ms, s.tmp2, accM, yMs[i])
		a.ctx.MulTo(s.ms, yMs[i], accM, prefix[i*k:(i+1)*k])
		accM, s.tmp2 = s.tmp2, accM
	}
	return nil
}

// ApplyTokenBatch is the package-level batch entry point: it builds a
// one-shot applier and transforms the whole column slice. Callers with a
// long-lived token (compiled expressions, rotation statements) should
// hold a TokenApplier instead to amortize the setup across chunks.
func ApplyTokenBatch(t Token, ves, ws []*big.Int, n *big.Int) ([]*big.Int, error) {
	return NewTokenApplier(t, n).ApplyBatch(ves, ws)
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
		return EncRequest{}, fmt.Errorf("secure: mask %s outside [1, 2^%d)", mask, s.maskWidth)
	}
	return EncRequest{Enc: mask, Rid: r, Key: ck}, nil
}

// EncryptBatch mints all requested shares with ONE modular inversion:
// item keys are derived per request (through g's comb table),
// then inverted together with Montgomery's batch trick. Semantically
// identical to calling Encrypt/EncryptMask per request; an error means
// some item key shared a factor with n (degenerate column key), the same
// condition the scalar paths report per share.
func (s *Secret) EncryptBatch(reqs []EncRequest) ([]*big.Int, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	vks := make([]*big.Int, len(reqs))
	for i, rq := range reqs {
		vks[i] = s.ItemKey(rq.Rid, rq.Key)
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
