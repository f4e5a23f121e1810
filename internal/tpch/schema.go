// Package tpch reimplements a scaled-down TPC-H substrate: the eight-table
// schema (with SDB sensitivity annotations on the money/quantity columns),
// a deterministic dbgen-style data generator, and the 22 queries expressed
// in this repository's SQL dialect. The demo paper's headline claim — all
// 22 TPC-H queries processable by SDB versus 4 by onion systems — is
// reproduced by running the coverage analyzer over these queries
// (experiment E2) and executing a representative subset end-to-end.
package tpch

import "strings"

// PlainCreateStatements is CreateStatements without the SENSITIVE
// annotations: the schema of the plaintext twin that differentials and
// plaintext workloads load next to (or in place of) the secure one.
func PlainCreateStatements() []string {
	ddl := CreateStatements()
	for i := range ddl {
		ddl[i] = strings.ReplaceAll(ddl[i], " SENSITIVE", "")
	}
	return ddl
}

// CreateStatements returns the CREATE TABLE statements with the SDB
// SENSITIVE annotations used throughout the experiments: every monetary
// amount, account balance, quantity and discount is sensitive; keys, names
// and dates of record are not (matching the paper's demo, where the
// attendee picks the columns to protect — we protect the financials).
func CreateStatements() []string {
	return []string{
		`CREATE TABLE region (
			r_regionkey INT,
			r_name STRING)`,
		`CREATE TABLE nation (
			n_nationkey INT,
			n_name STRING,
			n_regionkey INT)`,
		`CREATE TABLE supplier (
			s_suppkey INT,
			s_name STRING,
			s_nationkey INT,
			s_acctbal DECIMAL(2) SENSITIVE)`,
		`CREATE TABLE customer (
			c_custkey INT,
			c_name STRING,
			c_nationkey INT,
			c_mktsegment STRING,
			c_acctbal DECIMAL(2) SENSITIVE)`,
		`CREATE TABLE part (
			p_partkey INT,
			p_name STRING,
			p_brand STRING,
			p_type STRING,
			p_size INT,
			p_container STRING,
			p_retailprice DECIMAL(2) SENSITIVE)`,
		`CREATE TABLE partsupp (
			ps_partkey INT,
			ps_suppkey INT,
			ps_availqty INT,
			ps_supplycost DECIMAL(2) SENSITIVE)`,
		`CREATE TABLE orders (
			o_orderkey INT,
			o_custkey INT,
			o_orderstatus STRING,
			o_totalprice DECIMAL(2) SENSITIVE,
			o_orderdate DATE,
			o_orderpriority STRING,
			o_shippriority INT)`,
		`CREATE TABLE lineitem (
			l_orderkey INT,
			l_partkey INT,
			l_suppkey INT,
			l_linenumber INT,
			l_quantity INT SENSITIVE,
			l_extendedprice DECIMAL(2) SENSITIVE,
			l_discount DECIMAL(2) SENSITIVE,
			l_tax DECIMAL(2) SENSITIVE,
			l_returnflag STRING,
			l_linestatus STRING,
			l_shipdate DATE,
			l_commitdate DATE,
			l_receiptdate DATE,
			l_shipmode STRING)`,
	}
}

// SensitiveColumns maps lower-case column names to sensitivity; the
// coverage analyzer closes over it.
var SensitiveColumns = map[string]bool{
	"s_acctbal": true, "c_acctbal": true, "p_retailprice": true,
	"ps_supplycost": true, "o_totalprice": true,
	"l_quantity": true, "l_extendedprice": true, "l_discount": true, "l_tax": true,
}

// IsSensitive implements baseline.SensitiveFn for the TPC-H schema.
func IsSensitive(table, column string) bool {
	return SensitiveColumns[column]
}
