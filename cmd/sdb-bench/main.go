// Command sdb-bench prints the paper's three tables:
//
//	sdb-bench -exp coverage            # E2: TPC-H coverage, SDB vs the onion rules
//	sdb-bench -exp breakdown -sf 0.001 # E3: client vs server cost per query, cold and repeated
//	sdb-bench -exp shipall  -sf 0.001  # E7: SDB vs shipping every table to the DO
//
// Each experiment is a function returning typed rows; main_test.go pins
// every column that does not depend on timing. Throughput and per-layer
// costs are measured by the benchmark in bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"sdb/internal/baseline"
	"sdb/internal/baseline/shipall"
	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/tpch"
)

func main() {
	exp := flag.String("exp", "coverage", "experiment: coverage|breakdown|shipall")
	sf := flag.Float64("sf", 0.001, "TPC-H scale factor of breakdown and shipall")
	bits := flag.Int("bits", 512, "modulus width of breakdown and shipall")
	flag.Parse()

	switch *exp {
	case "coverage":
		rows, err := coverage()
		if err != nil {
			log.Fatal(err)
		}
		printCoverage(rows)
	case "breakdown", "shipall":
		start := time.Now()
		p, err := deployment(*sf, *bits, engine.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded TPC-H SF %g in %v (%d-bit modulus)\n\n", *sf, time.Since(start).Round(time.Millisecond), *bits)
		if *exp == "breakdown" {
			rows, err := breakdown(p)
			if err != nil {
				log.Fatal(err)
			}
			printBreakdown(rows)
		} else {
			rows, err := shipallTable(p)
			if err != nil {
				log.Fatal(err)
			}
			printShipall(rows)
		}
	default:
		log.Fatalf("sdb-bench: unknown experiment %q", *exp)
	}
}

// coverageRow is one query of E2: the operators it applies to sensitive
// columns and whether each system runs it natively.
type coverageRow struct {
	Query      int
	Ops        string
	SDB, Onion bool
}

// coverage is E2: per-query operator demands and native support under SDB
// versus the CryptDB-style onion rules, for all 22 TPC-H queries.
func coverage() ([]coverageRow, error) {
	var rows []coverageRow
	for _, q := range tpch.Queries() {
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.Num, err)
		}
		ops, err := baseline.AnalyzeQuery(sel, tpch.IsSensitive)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.Num, err)
		}
		rows = append(rows, coverageRow{Query: q.Num, Ops: ops.String(),
			SDB: baseline.SDBSupports(ops), Onion: baseline.CryptDBSupports(ops)})
	}
	return rows, nil
}

// deployment builds an SDB proxy over an in-process SP, run with opts,
// loaded with TPC-H.
func deployment(sf float64, bits int, opts engine.Options) (*proxy.Proxy, error) {
	secret, err := secure.Setup(bits, secure.DefaultValueBits, secure.DefaultMaskBits)
	if err != nil {
		return nil, err
	}
	p, err := proxy.New(secret, engine.NewWithOptions(storage.NewCatalog(), secret.N(), opts))
	if err != nil {
		return nil, err
	}
	exec := func(sql string) error { _, err := p.Exec(sql); return err }
	for _, ddl := range tpch.CreateStatements() {
		if err := exec(ddl); err != nil {
			return nil, err
		}
	}
	return p, tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42}, exec)
}

// breakdownRow is one query of E3: its result size, where its time went
// on its first execution, the SP's time on a second one (Repeat), and the
// helper powers the first had to compute (Misses: every later execution
// finds them memoised).
type breakdownRow struct {
	Query                           int
	Rows                            int
	Parse, Rewrite, Decrypt, Server time.Duration
	Repeat                          time.Duration
	Misses                          int64
}

// Client is the DO's share of the work: parse, rewrite and decrypt.
func (r breakdownRow) Client() time.Duration { return r.Parse + r.Rewrite + r.Decrypt }

// breakdown is E3: client vs server cost of every runnable TPC-H query,
// run twice in a row. The first execution is the cold one: it computes
// every helper power no earlier query left in the process's memo.
func breakdown(p *proxy.Proxy) ([]breakdownRow, error) {
	var rows []breakdownRow
	for _, q := range tpch.RunnableQueries() {
		before := secure.HelperPowers().Misses
		res, err := p.Exec(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.Num, err)
		}
		misses := secure.HelperPowers().Misses - before
		again, err := p.Exec(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("Q%d again: %w", q.Num, err)
		}
		st := res.Stats
		rows = append(rows, breakdownRow{Query: q.Num, Rows: len(res.Rows),
			Parse: st.Parse, Rewrite: st.Rewrite, Decrypt: st.Decrypt, Server: st.Server,
			Repeat: again.Stats.Server, Misses: misses})
	}
	return rows, nil
}

// shipallRow is one selectivity of E7: SDB's answer size, the rows the
// ship-everything baseline moved to the DO for the same answer, and both
// latencies.
type shipallRow struct {
	Selectivity  string
	Rows         int
	Shipped      int
	SDB, ShipAll time.Duration
}

// shipallTable is E7: SDB's server-side execution against shipping every
// referenced table to the DO, across selectivities (l_quantity is uniform
// on [1, 50]). Both must give the same number of answer rows.
func shipallTable(p *proxy.Proxy) ([]shipallRow, error) {
	ship := shipall.New(p)
	var rows []shipallRow
	for _, c := range []struct{ name, sql string }{
		{"~2%", `SELECT l_orderkey FROM lineitem WHERE l_quantity > 49`},
		{"~50%", `SELECT l_orderkey FROM lineitem WHERE l_quantity > 25`},
		{"~98%", `SELECT l_orderkey FROM lineitem WHERE l_quantity > 1`},
	} {
		t0 := time.Now()
		res, err := p.Exec(c.sql)
		if err != nil {
			return nil, err
		}
		row := shipallRow{Selectivity: c.name, Rows: len(res.Rows), SDB: time.Since(t0)}
		t1 := time.Now()
		local, shipped, err := ship.Run(c.sql)
		if err != nil {
			return nil, err
		}
		row.ShipAll, row.Shipped = time.Since(t1), shipped
		if len(local.Rows) != row.Rows {
			return nil, fmt.Errorf("%s: ship-all answered %d rows, SDB %d", c.name, len(local.Rows), row.Rows)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func printCoverage(rows []coverageRow) {
	w := tw()
	fmt.Fprintln(w, "query\tops on sensitive columns\tSDB\tonion (CryptDB-style)")
	sdbCount, onionCount := 0, 0
	for _, r := range rows {
		if r.SDB {
			sdbCount++
		}
		if r.Onion {
			onionCount++
		}
		ops := r.Ops
		if ops == "" {
			ops = "(none)"
		}
		fmt.Fprintf(w, "Q%d\t%s\t%s\t%s\n", r.Query, ops, yn(r.SDB), yn(r.Onion))
	}
	fmt.Fprintf(w, "total\t\t%d/%d\t%d/%d\n", sdbCount, len(rows), onionCount, len(rows))
	w.Flush()
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func printBreakdown(rows []breakdownRow) {
	w := tw()
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	fmt.Fprintln(w, "query\trows\tparse\trewrite\tdecrypt\tclient\tserver\tclient share\trepeat\tmisses")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%d\t%d\t%v\t%v\t%v\t%v\t%v\t%.1f%%\t%v\t%d\n", r.Query, r.Rows,
			us(r.Parse), us(r.Rewrite), us(r.Decrypt), us(r.Client()), us(r.Server),
			float64(r.Client())/float64(r.Client()+r.Server)*100, us(r.Repeat), r.Misses)
	}
	w.Flush()
}

func printShipall(rows []shipallRow) {
	w := tw()
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	fmt.Fprintln(w, "selectivity\trows\tSDB\tship-all\trows shipped (ship-all)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%d\n", r.Selectivity, r.Rows, ms(r.SDB), ms(r.ShipAll), r.Shipped)
	}
	w.Flush()
}
