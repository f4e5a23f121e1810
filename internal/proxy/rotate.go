package proxy

import (
	"context"
	"fmt"
	"time"

	"sdb/internal/engine"
	"sdb/internal/sqlparser"
)

// RotateColumn re-encrypts a sensitive column under a fresh column key,
// entirely server-side: the proxy draws a new key, derives a key-update
// token from the old key to the new one, and issues
//
//	UPDATE t SET col = sdb_keyupdate(col, sdb_w, p, q, n)
//
// The SP transforms every stored share without decrypting anything (it
// only ever sees the token); the proxy then publishes the new key. This is
// the key-management operation a DO performs after a suspected proxy-key
// exposure: the old column key becomes useless against the rotated data.
func (p *Proxy) RotateColumn(table, column string) (Stats, error) {
	return p.rotate(table, column)
}

// RotateMask refreshes a table's hidden comparison-mask column key the same
// way (the mask values themselves stay; their key changes).
func (p *Proxy) RotateMask(table string) (Stats, error) {
	return p.rotate(table, MaskColumn)
}

// rotate re-keys one column of table (MaskColumn for the mask) under the
// table's exclusive key lock, held from reading the old key until the new
// one is settled: no INSERT encrypts under the old key after the SP
// re-keyed the table, and no SELECT pins re-keyed shares under old tokens.
func (p *Proxy) rotate(table, column string) (Stats, error) {
	var st Stats
	unlock, err := p.store.lock(context.Background(), true, table)
	if err != nil {
		return st, err
	}
	defer unlock()
	t0 := time.Now()
	meta, err := p.store.Get(table)
	if err != nil {
		return st, err
	}
	oldKey, ok := meta.columnKey(column)
	if !ok {
		return st, fmt.Errorf("proxy: %s.%s is not an encrypted column", table, column)
	}
	newKey, err := p.secret.NewColumnKey()
	if err != nil {
		return st, err
	}
	tok, err := p.secret.KeyUpdateToken(oldKey, newKey)
	if err != nil {
		return st, err
	}
	upd := &sqlparser.Update{
		Table: table,
		Set: []sqlparser.SetClause{{
			Column: column,
			Expr: &sqlparser.FuncCall{Name: "sdb_keyupdate", Args: []sqlparser.Expr{
				sqlparser.ColRef{Name: column},
				sqlparser.ColRef{Name: engine.HelperColumn},
				sqlparser.HexLit{V: tok.P},
				sqlparser.HexLit{V: tok.Q},
				sqlparser.HexLit{V: p.secret.N()},
			}},
		}},
	}
	st.RewrittenSQL = upd.String()
	st.Rewrite = time.Since(t0)

	// Written ahead as pending, published (advancing the key-store version
	// cached plans carry) once the SP answers; docs/storage.md.
	t1 := time.Now()
	next := &TableMeta{Schema: meta.Schema, Keys: meta.Keys, MaskKey: meta.MaskKey,
		Pending: &pendingKey{Column: column, Key: newKey}}
	err = p.writeAhead(table, next, st.RewrittenSQL)
	st.Server = time.Since(t1)
	return st, err
}
