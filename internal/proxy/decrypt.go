package proxy

import (
	"fmt"
	"sort"

	"sdb/internal/secure"
	"sdb/internal/types"
)

// rowKernel is a select plan resolved for one execution: a
// secure.Decryptor per encrypted output column (Πm in Montgomery form plus
// the comb table of every row-keyed factor, taken from the secret's memo
// or built here on first touch). The plan itself stays key-and-index
// data, so the plan cache pins no tables. decryptRow is the only place
// server cells turn into plaintext, for the streaming cursor and the
// materialising path alike, and the SP is not trusted to be well-formed:
// every cell it reads is checked first and a bad one is an error.
type rowKernel struct {
	p    *Proxy
	plan *selectPlan
	dec  []*secure.Decryptor // by plan.out index; nil for omPlain
}

func (p *Proxy) newRowKernel(plan *selectPlan) *rowKernel {
	k := &rowKernel{p: p, plan: plan, dec: make([]*secure.Decryptor, len(plan.out))}
	for c := range plan.out {
		switch oc := &plan.out[c]; oc.mode {
		case omFlat, omAvg:
			k.dec[c] = p.secret.NewDecryptor(oc.flatKey)
		case omRowKey:
			keys := make([]secure.ColumnKey, len(oc.factors))
			for i, f := range oc.factors {
				keys[i] = f.key
			}
			k.dec[c] = p.secret.NewDecryptor(keys...)
		}
	}
	return k
}

// decryptBatch decrypts one encrypted batch in parallel chunks on the
// proxy's pool; rows are independent. The batch's rows are capacity-clipped
// windows of one []types.Value, as types.Decoder.Rows lays out a frame, and
// their decrypted row ids share one []uint64 of the same shape: a batch
// allocates a constant number of times whatever its length.
func (k *rowKernel) decryptBatch(enc []types.Row) ([]types.Row, error) {
	w := len(k.plan.out)
	rows := make([]types.Row, len(enc))
	vals := make([]types.Value, len(enc)*w)
	rids := make([]uint64, len(enc)*w)
	err := k.p.pool.ForEachChunk(len(enc), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := vals[i*w : (i+1)*w : (i+1)*w]
			if err := k.decryptRow(enc[i], row, rids[i*w:(i+1)*w]); err != nil {
				return err
			}
			rows[i] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// decryptRow decrypts one server row into row, a full plan-width row
// (hidden columns included). rids, as wide as row and zero on entry, keeps
// the row ids it decrypts by server column, so a row id the row's
// row-keyed columns share is decrypted once: the proxy draws row ids from
// [1, 2^62), and one that decrypts to 0 is only decrypted again. It is
// called concurrently; everything it touches on the proxy (scheme secret,
// SIES cipher, plan) is read-only here.
func (k *rowKernel) decryptRow(srvRow types.Row, row []types.Value, rids []uint64) error {
	out := k.plan.out
	if len(srvRow) != len(out) {
		return fmt.Errorf("proxy: server row has %d columns, plan expects %d", len(srvRow), len(out))
	}
	var args [4]uint64 // a product of more than 4 row-keyed factors allocates
	for c := range out {
		oc := &out[c]
		v := srvRow[c]
		if oc.mode == omPlain || v.IsNull() {
			row[c] = v
			continue
		}
		if v.K != types.KindShare {
			return fmt.Errorf("proxy: column %q: expected share, got %s", oc.name, v.K)
		}
		ridArgs := args[:0]
		for _, ri := range oc.rids {
			if rids[ri] == 0 {
				r, err := k.p.decryptRowID(srvRow[ri])
				if err != nil {
					return fmt.Errorf("proxy: column %q: %w", out[ri].name, err)
				}
				rids[ri] = r
			}
			ridArgs = append(ridArgs, rids[ri])
		}
		d, err := k.dec[c].Decrypt(v.B, ridArgs...)
		if err != nil {
			return fmt.Errorf("proxy: column %q: %w", oc.name, err)
		}
		if oc.mode == omAvg {
			cnt := srvRow[oc.cntIdx]
			if !cnt.IsNull() && cnt.K != types.KindInt {
				return fmt.Errorf("proxy: column %q: expected integer count, got %s", oc.name, cnt.K)
			}
			if cnt.IsNull() || cnt.I == 0 {
				row[c] = types.Null
				continue
			}
			// Two extra decimal digits of precision for the mean, which
			// must fit an int64 where the sum need not.
			mean, err := d.MeanX100(cnt.I)
			if err != nil {
				return fmt.Errorf("proxy: AVG overflow in column %q", oc.name)
			}
			row[c] = types.Value{K: types.KindDecimal, I: mean}
			continue
		}
		i, err := d.Int64()
		if err != nil {
			return fmt.Errorf("proxy: column %q: %w", oc.name, err)
		}
		row[c] = valueOf(i, oc.kind)
	}
	return nil
}

// sortAndLimit applies the plan's deferred ORDER BY (encrypted sort keys
// are plaintext now) and LIMIT to fully decrypted plan-width rows.
func (plan *selectPlan) sortAndLimit(rows []types.Row) []types.Row {
	if keys := plan.postOrder; len(keys) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			for _, k := range keys {
				c := rows[a][k.srvIdx].Compare(rows[b][k.srvIdx])
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if plan.postLimit != nil && int64(len(rows)) > *plan.postLimit {
		rows = rows[:*plan.postLimit]
	}
	return rows
}

// valueOf types a decrypted integer by its column's kind.
func valueOf(i int64, kind types.Kind) types.Value {
	switch kind {
	case types.KindDecimal:
		return types.NewDecimal(i)
	case types.KindDate:
		return types.NewDate(i)
	default:
		return types.NewInt(i)
	}
}
