package proxy

import (
	"fmt"
	"math/big"
	"sort"

	"sdb/internal/parallel"
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
// proxy's pool; rows are independent.
func (k *rowKernel) decryptBatch(enc []types.Row) ([]types.Row, error) {
	return parallel.Map(k.p.pool, len(enc), func(i int) (types.Row, error) {
		return k.decryptRow(enc[i])
	})
}

// decryptRow decrypts one server row into a full plan-width row (hidden
// columns included). It is called concurrently; everything it touches on
// the proxy (scheme secret, SIES cipher, plan) is read-only here.
func (k *rowKernel) decryptRow(srvRow types.Row) (types.Row, error) {
	out := k.plan.out
	if len(srvRow) != len(out) {
		return nil, fmt.Errorf("proxy: server row has %d columns, plan expects %d", len(srvRow), len(out))
	}
	// Row ids decrypted so far, by server column: several output columns
	// of one row share a join side's row id.
	var rids []secure.RowID
	var args [4]secure.RowID // a product of more than 4 row-keyed factors allocates

	row := make(types.Row, len(out))
	for c := range out {
		oc := &out[c]
		v := srvRow[c]
		if oc.mode == omPlain || v.IsNull() {
			row[c] = v
			continue
		}
		if v.K != types.KindShare {
			return nil, fmt.Errorf("proxy: column %q: expected share, got %s", oc.name, v.K)
		}
		ridArgs := args[:0]
		for _, ri := range oc.rids {
			if rids == nil {
				rids = make([]secure.RowID, len(out))
			}
			if rids[ri].R == nil {
				var err error
				if rids[ri], err = k.p.decryptRowID(srvRow[ri]); err != nil {
					return nil, fmt.Errorf("proxy: column %q: %w", out[ri].name, err)
				}
			}
			ridArgs = append(ridArgs, rids[ri])
		}
		d, err := k.dec[c].Decrypt(v.B, ridArgs...)
		if err != nil {
			return nil, fmt.Errorf("proxy: column %q: %w", oc.name, err)
		}
		if oc.mode == omAvg {
			cnt := srvRow[oc.cntIdx]
			if !cnt.IsNull() && cnt.K != types.KindInt {
				return nil, fmt.Errorf("proxy: column %q: expected integer count, got %s", oc.name, cnt.K)
			}
			if cnt.IsNull() || cnt.I == 0 {
				row[c] = types.Null
				continue
			}
			// Two extra decimal digits of precision for the mean.
			d.Mul(d, big.NewInt(100)).Quo(d, big.NewInt(cnt.I))
			if !d.IsInt64() {
				return nil, fmt.Errorf("proxy: AVG overflow in column %q", oc.name)
			}
			row[c] = types.Value{K: types.KindDecimal, I: d.Int64()}
			continue
		}
		if row[c], err = toValue(d, oc.kind); err != nil {
			return nil, fmt.Errorf("proxy: column %q: %w", oc.name, err)
		}
	}
	return row, nil
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

// toValue converts a decrypted big integer into a typed value. One that
// does not fit is reported by width alone, as Token.String does: it is a
// SENSITIVE plaintext or, for a share the SP made up, a residue of share ·
// item key — and two of those for chosen shares of one cell factor n.
func toValue(v *big.Int, kind types.Kind) (types.Value, error) {
	if !v.IsInt64() {
		return types.Null, fmt.Errorf("decrypted value <%d bits> overflows int64", v.BitLen())
	}
	i := v.Int64()
	switch kind {
	case types.KindDecimal:
		return types.NewDecimal(i), nil
	case types.KindDate:
		return types.NewDate(i), nil
	default:
		return types.NewInt(i), nil
	}
}
