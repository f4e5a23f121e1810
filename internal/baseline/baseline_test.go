package baseline

import (
	"crypto/rand"
	"encoding/binary"
	"testing"

	"sdb/internal/sqlparser"
)

// Decrypt inverts Encrypt.
func (d *DET) Decrypt(c [16]byte) int64 {
	var out [16]byte
	d.block.Decrypt(out[:], c[:])
	return int64(binary.BigEndian.Uint64(out[8:]))
}

// AnalyzeSQL parses and analyzes one query.
func AnalyzeSQL(sql string, sensitive SensitiveFn) (OpSet, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return AnalyzeQuery(sel, sensitive)
}

func testKey(t *testing.T) []byte {
	t.Helper()
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestDETRoundTripAndDeterminism(t *testing.T) {
	d, err := NewDET(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 1, -1, 123456789, -987654} {
		c := d.Encrypt(v)
		if d.Decrypt(c) != v {
			t.Errorf("round trip %d failed", v)
		}
		if c != d.Encrypt(v) {
			t.Errorf("DET must be deterministic for %d", v)
		}
	}
	if d.Encrypt(5) == d.Encrypt(6) {
		t.Error("distinct plaintexts collided")
	}
}

func TestDETKeyValidation(t *testing.T) {
	if _, err := NewDET([]byte("short")); err == nil {
		t.Error("expected error for bad key size")
	}
}

func sens(table, col string) bool {
	switch col {
	case "price", "discount", "balance", "qty":
		return true
	}
	return false
}

func TestCoverageSimpleQueriesSupportedByBoth(t *testing.T) {
	queries := []string{
		`SELECT SUM(price) FROM t`,
		`SELECT id FROM t WHERE price > 100`,
		`SELECT price, COUNT(*) FROM t GROUP BY price`,
		`SELECT MIN(price) FROM t`,
		`SELECT a.id FROM a JOIN b ON a.price = b.price`,
	}
	for _, q := range queries {
		ops, err := AnalyzeSQL(q, sens)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !CryptDBSupports(ops) {
			t.Errorf("CryptDB should support %q (ops %s)", q, ops)
		}
		if !SDBSupports(ops) {
			t.Errorf("SDB should support %q", q)
		}
	}
}

func TestCoverageInteroperabilityGap(t *testing.T) {
	// The revenue expression of TPC-H Q6/Q1: a product of two encrypted
	// columns feeding a SUM. SDB handles it natively; onion systems do not
	// (no EE multiplication, no cross-onion composition).
	queries := []string{
		`SELECT SUM(price * discount) FROM t`,
		`SELECT SUM(price * (1 - discount)) FROM t`,
		`SELECT id FROM t WHERE price * qty > 100`,
	}
	for _, q := range queries {
		ops, err := AnalyzeSQL(q, sens)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if CryptDBSupports(ops) {
			t.Errorf("CryptDB should NOT support %q (ops %s)", q, ops)
		}
		if !SDBSupports(ops) {
			t.Errorf("SDB should support %q", q)
		}
	}
}

func TestCoverageCompositionDetected(t *testing.T) {
	ops, err := AnalyzeSQL(`SELECT k FROM t GROUP BY k HAVING SUM(price + discount) > 5`, sens)
	if err != nil {
		t.Fatal(err)
	}
	if !ops[OpAddEE] || !ops[OpSum] {
		t.Errorf("ops = %s", ops)
	}
	if !ops[OpCompose] {
		t.Errorf("SUM over add(E,E) must be flagged as composition: %s", ops)
	}
}

func TestOpSetString(t *testing.T) {
	ops := make(OpSet)
	ops.Add(OpSum)
	ops.Add(OpEq)
	if ops.String() != "eq,sum" {
		t.Errorf("String = %q", ops.String())
	}
}
