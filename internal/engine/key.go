package engine

import "sdb/internal/types"

// Composite hash keys (join keys, group keys, DISTINCT rows) are the
// concatenation of each component's types.Value.AppendGroupKey encoding.
// Plain concatenation of value text would be ambiguous across component
// boundaries — ("ab","c") and ("a","bc") — but every component of the
// binary form is self-delimiting (a kind byte, then a fixed-width or
// length-prefixed payload), so the composite is injective over value
// sequences. Callers append into a reused scratch buffer and convert to a
// string only where a map has to own the key.

// rowKey renders a whole row as a composite hash key (DISTINCT dedup).
func rowKey(row types.Row) string {
	buf := make([]byte, 0, 16*len(row))
	for _, v := range row {
		buf = v.AppendGroupKey(buf)
	}
	return string(buf)
}

// appendJoinKey evaluates the join-key expressions over a row and appends
// the composite key to dst. hasNull reports a NULL component: SQL equality
// never matches NULL, so rows with NULL keys are excluded from both build
// and probe sides (matching the compiled `=` evaluator the nested-loop join
// uses).
func appendJoinKey(dst []byte, keys []compiledExpr, row types.Row) (key []byte, hasNull bool, err error) {
	for _, k := range keys {
		v, err := k(row)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		dst = v.AppendGroupKey(dst)
	}
	return dst, false, nil
}

// hashKey is FNV-1a over the composite key, used to spread join keys and
// aggregation groups across spill partitions.
func hashKey[K string | []byte](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
