// Command sdb-bench drives the paper-reproduction experiments from
// DESIGN.md §3 and prints the tables recorded in EXPERIMENTS.md.
//
//	sdb-bench -exp coverage            # E2: TPC-H coverage matrix
//	sdb-bench -exp breakdown -sf 0.001 # E3: client vs server cost
//	sdb-bench -exp shipall  -sf 0.001  # E7: SDB vs ship-everything
//	sdb-bench -exp tpch     -sf 0.001  # E9: TPC-H latency vs plaintext
//	sdb-bench -exp ops -bits 2048      # E5/E6: per-operator costs
//	sdb-bench -exp concurrent -clients 128  # E10: many drivers, one server
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"sdb/internal/baseline"
	"sdb/internal/baseline/shipall"
	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/spill"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/tpch"
)

// execOpts carries the parallel-execution and memory-budget knobs into
// deployments.
type execOpts struct {
	parallel  int
	chunk     int
	memBudget int
}

func (o execOpts) engine() engine.Options {
	return engine.Options{Parallelism: o.parallel, ChunkSize: o.chunk,
		MemBudgetRows: o.memBudget}
}

func (o execOpts) proxy() proxy.Options {
	return proxy.Options{Parallelism: o.parallel, ChunkSize: o.chunk}
}

func main() {
	exp := flag.String("exp", "coverage", "experiment: coverage|breakdown|shipall|tpch|ops|concurrent")
	sf := flag.Float64("sf", 0.001, "TPC-H scale factor for data-driven experiments")
	bits := flag.Int("bits", 512, "modulus width for ops experiment and deployments")
	par := flag.Int("parallel", 0, "secure-operator worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	chunk := flag.Int("chunk", 0, "rows per evaluation chunk (0 = default 1024)")
	memBudget := flag.Int("mem-budget", 0, "per-query resident-row budget; blocking operators spill past it (<= 0 = unlimited)")
	clients := flag.Int("clients", 64, "driver connections for the concurrent experiment")
	queries := flag.Int("queries", 20, "SELECTs each driver runs in the concurrent experiment")
	globalBudget := flag.Int("global-budget", 0, "server-wide resident-row pool for the concurrent experiment (0 = off)")
	flag.Parse()
	opts := execOpts{parallel: *par, chunk: *chunk, memBudget: *memBudget}

	switch *exp {
	case "coverage":
		coverage()
	case "breakdown":
		breakdown(*sf, *bits, opts)
	case "shipall":
		shipallExp(*sf, *bits, opts)
	case "tpch":
		tpchExp(*sf, *bits, opts)
	case "ops":
		ops(*bits)
	case "concurrent":
		concurrent(*sf, *bits, *clients, *queries, *globalBudget, opts)
	default:
		log.Fatalf("sdb-bench: unknown experiment %q", *exp)
	}
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// coverage prints the E2 matrix: per-query operator demands and native
// support under SDB versus the CryptDB-style onion rules.
func coverage() {
	w := tw()
	fmt.Fprintln(w, "query\tops on sensitive columns\tSDB\tonion (CryptDB-style)")
	sdbCount, onionCount := 0, 0
	for _, q := range tpch.Queries() {
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			log.Fatalf("Q%d: %v", q.Num, err)
		}
		ops, err := baseline.AnalyzeQuery(sel, tpch.IsSensitive)
		if err != nil {
			log.Fatalf("Q%d: %v", q.Num, err)
		}
		sdb, onion := baseline.SDBSupports(ops), baseline.CryptDBSupports(ops)
		if sdb {
			sdbCount++
		}
		if onion {
			onionCount++
		}
		fmt.Fprintf(w, "Q%d\t%s\t%s\t%s\n", q.Num, orDash(ops.String()), yn(sdb), yn(onion))
	}
	fmt.Fprintf(w, "total\t\t%d/22\t%d/22\n", sdbCount, onionCount)
	w.Flush()
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func orDash(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

// deployment builds an SDB proxy + in-process SP loaded with TPC-H data.
func deployment(sf float64, bits int, opts execOpts) (*proxy.Proxy, *engine.Engine) {
	secret, err := secure.Setup(bits, secure.DefaultValueBits, secure.DefaultMaskBits)
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), opts.engine())
	p, err := proxy.NewWithOptions(secret, eng, opts.proxy())
	if err != nil {
		log.Fatal(err)
	}
	for _, ddl := range tpch.CreateStatements() {
		if _, err := p.Exec(ddl); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	if err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42}, func(sql string) error {
		_, err := p.Exec(sql)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded TPC-H SF %g in %v (%d-bit modulus)\n\n", sf, time.Since(start).Round(time.Millisecond), bits)
	return p, eng
}

// spStats runs a rewritten statement on the SP engine alone and returns its
// execution stats: what the scans kept and what the operators spilled.
func spStats(eng *engine.Engine, sql string) engine.ExecStats {
	it, err := eng.QuerySQL(context.Background(), sql)
	if err != nil {
		log.Fatalf("sp stats: %v", err)
	}
	defer it.Close()
	for {
		if _, err := it.NextBatch(); err == io.EOF {
			return it.(interface{ Stats() engine.ExecStats }).Stats()
		} else if err != nil {
			log.Fatalf("sp stats: %v", err)
		}
	}
}

func plainDeployment(sf float64, opts execOpts) *proxy.Proxy {
	secret, err := secure.Setup(256, 62, 80)
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.NewWithOptions(storage.NewCatalog(), nil, opts.engine())
	p, err := proxy.NewWithOptions(secret, eng, opts.proxy())
	if err != nil {
		log.Fatal(err)
	}
	for _, ddl := range tpch.CreateStatements() {
		stmt, _ := sqlparser.Parse(ddl)
		ct := stmt.(*sqlparser.CreateTable)
		for i := range ct.Cols {
			ct.Cols[i].Type.Sensitive = false
		}
		if _, err := p.Exec(ct.String()); err != nil {
			log.Fatal(err)
		}
	}
	if err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42}, func(sql string) error {
		_, err := p.Exec(sql)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	return p
}

// breakdown is E3: client vs server cost per query.
func breakdown(sf float64, bits int, opts execOpts) {
	p, _ := deployment(sf, bits, opts)
	w := tw()
	fmt.Fprintln(w, "query\tparse\trewrite\tdecrypt\tclient\tserver\tclient share")
	for _, q := range tpch.RunnableQueries() {
		res, err := p.Exec(q.SQL)
		if err != nil {
			log.Fatalf("Q%d: %v", q.Num, err)
		}
		st := res.Stats
		fmt.Fprintf(w, "Q%d\t%v\t%v\t%v\t%v\t%v\t%.1f%%\n",
			q.Num, st.Parse.Round(time.Microsecond), st.Rewrite.Round(time.Microsecond),
			st.Decrypt.Round(time.Microsecond), st.Client().Round(time.Microsecond),
			st.Server.Round(time.Microsecond),
			float64(st.Client())/float64(st.Total())*100)
	}
	w.Flush()
}

// shipallExp is E7: SDB vs ship-everything across selectivities.
func shipallExp(sf float64, bits int, opts execOpts) {
	p, _ := deployment(sf, bits, opts)
	ship := shipall.New(p)
	w := tw()
	fmt.Fprintln(w, "selectivity\tSDB\tship-all\trows shipped (ship-all)")
	for _, c := range []struct {
		name string
		sql  string
	}{
		{"~2%", `SELECT l_orderkey FROM lineitem WHERE l_quantity > 49`},
		{"~50%", `SELECT l_orderkey FROM lineitem WHERE l_quantity > 25`},
		{"~98%", `SELECT l_orderkey FROM lineitem WHERE l_quantity > 1`},
	} {
		t0 := time.Now()
		if _, err := p.Exec(c.sql); err != nil {
			log.Fatal(err)
		}
		sdbTime := time.Since(t0)
		t1 := time.Now()
		_, shipped, err := ship.Run(c.sql)
		if err != nil {
			log.Fatal(err)
		}
		shipTime := time.Since(t1)
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\n", c.name,
			sdbTime.Round(time.Millisecond), shipTime.Round(time.Millisecond), shipped)
	}
	w.Flush()
}

// tpchExp is E9: TPC-H latency, SDB vs plaintext engine. Queries run
// through the prepared streaming API: each is prepared once (parse +
// rewrite + token derivation paid up front), then executed and drained
// through a decrypting cursor; the prepared re-execution column shows what
// repeat executions cost once the rewrite is amortized. The last two
// columns are the SP's own accounting of the rewritten statement: columns
// its scans materialised out of the columns the scanned tables have, and
// bytes spilled (non-zero only under -mem-budget).
func tpchExp(sf float64, bits int, opts execOpts) {
	ctx := context.Background()
	p, eng := deployment(sf, bits, opts)
	plain := plainDeployment(sf, opts)
	w := tw()
	fmt.Fprintln(w, "query\tSDB first\tSDB prepared\tplaintext\toverhead\tscan cols\tspilled")
	for _, q := range tpch.RunnableQueries() {
		t0 := time.Now()
		stmt, err := p.PrepareContext(ctx, q.SQL)
		if err != nil {
			log.Fatalf("Q%d prepare: %v", q.Num, err)
		}
		if _, err := stmt.ExecContext(ctx); err != nil {
			log.Fatalf("Q%d sdb: %v", q.Num, err)
		}
		sdbTime := time.Since(t0)
		t1 := time.Now()
		res, err := stmt.ExecContext(ctx)
		if err != nil {
			log.Fatalf("Q%d sdb (prepared): %v", q.Num, err)
		}
		preparedTime := time.Since(t1)
		stmt.Close()
		t2 := time.Now()
		if _, err := plain.Exec(q.SQL); err != nil {
			log.Fatalf("Q%d plain: %v", q.Num, err)
		}
		plainTime := time.Since(t2)
		st := spStats(eng, res.Stats.RewrittenSQL)
		fmt.Fprintf(w, "Q%d\t%v\t%v\t%v\t%.1fx\t%d/%d\t%d B\n", q.Num,
			sdbTime.Round(time.Millisecond), preparedTime.Round(time.Millisecond),
			plainTime.Round(time.Millisecond),
			float64(sdbTime)/float64(plainTime), st.ScanCols, st.TableCols, st.SpilledBytes)
	}
	w.Flush()
}

// concurrent is E10: one TCP server, many independent drivers. A seed
// proxy loads TPC-H and saves its key state; every driver then becomes a
// real remote client — its own connection, its own proxy recovered from
// the state file — and hammers one-shot SELECTs through the fused v2
// path. The table sweeps driver counts up to -clients and reports
// throughput, latency percentiles, and the round-trips-per-query the
// fused op is supposed to pin at 1.
func concurrent(sf float64, bits, maxClients, perClient, globalBudget int, opts execOpts) {
	secret, err := secure.Setup(bits, secure.DefaultValueBits, secure.DefaultMaskBits)
	if err != nil {
		log.Fatal(err)
	}
	engOpts := opts.engine()
	if globalBudget > 0 {
		engOpts.BudgetPool = spill.NewPool(globalBudget)
	}
	srv := server.NewWithOptions(secret.N(), engOpts)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()

	// Seed through a remote proxy so the loaded data takes the same wire
	// path the drivers will use, then persist the keys for them.
	seedConn, err := server.Dial(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	seed, err := proxy.NewWithOptions(secret, seedConn, opts.proxy())
	if err != nil {
		log.Fatal(err)
	}
	for _, ddl := range tpch.CreateStatements() {
		if _, err := seed.Exec(ddl); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	if err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42}, func(sql string) error {
		_, err := seed.Exec(sql)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded TPC-H SF %g over TCP in %v (%d-bit modulus)\n", sf, time.Since(start).Round(time.Millisecond), bits)
	statePath := filepath.Join(os.TempDir(), fmt.Sprintf("sdb-bench-state-%d.json", os.Getpid()))
	if err := seed.SaveState(statePath); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(statePath)
	seedConn.Close()

	const q = `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 30`
	sweep := []int{1, 8, 32, maxClients}
	w := tw()
	fmt.Fprintln(w, "clients\tqueries\twall\tQPS\tavg\tp95\tRTs/query")
	for _, n := range sweep {
		if n > maxClients {
			continue
		}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			lats []time.Duration
			rts  int64
		)
		t0 := time.Now()
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := server.Dial(addr.String())
				if err != nil {
					log.Fatal(err)
				}
				defer conn.Close()
				p, err := proxy.NewFromStateFile(statePath, conn, opts.proxy())
				if err != nil {
					log.Fatal(err)
				}
				mine := make([]time.Duration, 0, perClient)
				base := conn.RoundTrips()
				for i := 0; i < perClient; i++ {
					tq := time.Now()
					if _, err := p.ExecContext(context.Background(), q); err != nil {
						log.Fatal(err)
					}
					mine = append(mine, time.Since(tq))
				}
				trips := conn.RoundTrips() - base
				mu.Lock()
				lats = append(lats, mine...)
				rts += trips
				mu.Unlock()
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		total := len(lats)
		fmt.Fprintf(w, "%d\t%d\t%v\t%.0f\t%v\t%v\t%.2f\n",
			n, total, wall.Round(time.Millisecond),
			float64(total)/wall.Seconds(),
			(sum / time.Duration(total)).Round(time.Microsecond),
			lats[total*95/100].Round(time.Microsecond),
			float64(rts)/float64(total))
	}
	w.Flush()
	m := srv.MetricsSnapshot()
	fmt.Printf("\nserver: %d sessions served, %d fused execs, %d rows produced, %.1f MiB out, stmt ledger %d prepared / %d closed\n",
		m.SessionsTotal, m.DirectExecs, m.RowsProduced, float64(m.BytesOut)/(1<<20), m.StmtsPrepared, m.StmtsClosed)
}

// ops is E5/E6: per-operator cost at the chosen modulus width. A token
// application costs whatever its w^Q costs, and the SP's helper-power memo
// gives that three states, reported separately: "first touch" is a helper
// the memo has never seen, "memo hit" repeats a (helper, token) pair, and
// "fresh exponent" applies a new exponent to helpers the memo already
// knows under another one (it exponentiates: the memo keys on the pair).
//
// DO-side costs follow the row id's width. Secret.NewRowID draws
// modulus-wide ids, which no proxy does: proxy rows carry 62-bit ids
// (secure.RowIDBits), whose item keys go through the column key's own comb
// table. Both widths are reported, and the proxy width also cold — the
// first item key under a column key, which builds that table. "row
// kernel" is secure.Decryptor, the path result rows take: modulo p₁ when
// the secret can host the decrypt domain there (-bits ≥ 288 with the
// default budget), against Secret.Decrypt's modulo-n item key one line up.
func ops(bits int) {
	secret, err := secure.Setup(bits, secure.DefaultValueBits, secure.DefaultMaskBits)
	if err != nil {
		log.Fatal(err)
	}
	n := secret.N()
	ckA, _ := secret.NewColumnKey()
	ckB, _ := secret.NewColumnKey()
	flat, _ := secret.FlatKey()
	const rows = 250
	rids := make([]secure.RowID, rows)
	short := make([]secure.RowID, rows) // proxy-width row ids
	ws := make([]*big.Int, rows)
	aes := make([]*big.Int, rows)
	bes := make([]*big.Int, rows)
	shortAes := make([]*big.Int, rows)
	for i := range rids {
		rids[i], _ = secret.NewRowID()
		short[i], _ = secure.NewShortRowID()
		ws[i] = secret.RowHelper(rids[i])
		aes[i], _ = secret.EncryptInt64(123456+int64(i), rids[i], ckA)
		bes[i], _ = secret.EncryptInt64(-9876-int64(i), rids[i], ckB)
		shortAes[i], _ = secret.EncryptInt64(123456+int64(i), short[i], ckA)
	}
	tokU, _ := secret.KeyUpdateToken(ckA, ckB)
	tokF, _ := secret.KeyUpdateToken(ckA, flat)

	// Every operator runs over the same rows in turn, rounds times over;
	// prep, untimed, sets the memo state each round starts from.
	const rounds = 8
	timeOp := func(name string, prep func(), f func(i int)) {
		var total time.Duration
		for r := 0; r < rounds; r++ {
			if prep != nil {
				prep()
			}
			t0 := time.Now()
			for i := 0; i < rows; i++ {
				f(i)
			}
			total += time.Since(t0)
		}
		fmt.Printf("%-34s %10v/op\n", name, total/(rounds*rows))
	}
	tokenStates := func(name string, tok, other secure.Token) {
		apply := func(i int) { secure.ApplyToken(tok, aes[i], ws[i], n) }
		timeOp(name+" (first touch)", secure.ResetHelperPowers, apply)
		timeOp(name+" (memo hit)", nil, apply)
		timeOp(name+" (fresh exponent)", func() {
			secure.ResetHelperPowers()
			for i := range ws {
				secure.ApplyToken(other, aes[i], ws[i], n)
			}
		}, apply)
	}
	fmt.Printf("per-operator cost, %d-bit modulus (%d rows x %d rounds)\n\n", bits, rows, rounds)
	timeOp("item key (n-wide row id)", nil, func(i int) { secret.ItemKey(rids[i], ckA) })
	timeOp("encrypt (n-wide row id)", nil, func(i int) { _, _ = secret.EncryptInt64(424242, rids[i], ckA) })
	timeOp("decrypt (n-wide row id)", nil, func(i int) { secret.Decrypt(aes[i], rids[i], ckA) })
	timeOp("item key (62-bit row id)", nil, func(i int) { secret.ItemKey(short[i], ckA) })
	timeOp("encrypt (62-bit row id)", nil, func(i int) { _, _ = secret.EncryptInt64(424242, short[i], ckA) })
	timeOp("decrypt (62-bit row id)", nil, func(i int) { secret.Decrypt(shortAes[i], short[i], ckA) })
	dec := secret.NewDecryptor(ckA)
	timeOp("decrypt (62-bit, row kernel)", nil, func(i int) { _, _ = dec.Decrypt(shortAes[i], short[i]) })
	timeOp("item key (62-bit, cold: builds table)", nil, func(i int) {
		ck, _ := secret.NewColumnKey()
		secret.ItemKey(short[i], ck)
	})
	timeOp("multiply (EE)", nil, func(i int) { secure.Multiply(aes[i], bes[i], n) })
	timeOp("add (same key)", nil, func(i int) { secure.AddShares(aes[i], aes[i], n) })
	tokenStates("key update", tokU, tokF)
	tokenStates("flatten (DET tag)", tokF, tokU)
	timeOp("token generation", nil, func(int) { _, _ = secret.KeyUpdateToken(ckA, ckB) })
	half := new(big.Int).Rsh(n, 1)
	mask, _ := secret.NewMaskValue()
	ckR, _ := secret.NewColumnKey()
	mes := make([]*big.Int, rows)
	for i := range mes {
		mes[i], _ = secret.EncryptMask(mask, rids[i], ckR)
	}
	tokBA, _ := secret.KeyUpdateToken(ckB, ckA)
	rev, _ := secret.RevealToken(secret.MulKeys(ckA, ckR))
	compare := func(i int) {
		diff := secure.SubShares(aes[i], secure.ApplyToken(tokBA, bes[i], ws[i], n), n)
		masked := secure.Multiply(diff, mes[i], n)
		secure.MaskedSign(secure.ApplyToken(rev, masked, ws[i], n), half)
	}
	timeOp("compare, full (first touch)", secure.ResetHelperPowers, compare)
	timeOp("compare, full (memo hit)", nil, compare)
}
