package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sdb/internal/bigmod"
	"sdb/internal/secure"
	"sdb/internal/storage"
)

// The randomized spill-vs-memory differential suite. Every case builds
// the same randomized tables (NULL keys, duplicate keys, duplicate
// strings, negative values) into two engines — one with an unlimited
// budget, one with a budget tiny enough that the operator under test
// must spill one or more generations — runs the same generated query on
// both, and requires cell-for-cell identical results in identical order.
// On failure the case shrinks: rows are delta-removed from each table
// while the divergence persists, and the minimal reproducer (seed, SQL,
// surviving rows) is reported.

// diffCase is one randomized differential scenario.
type diffCase struct {
	seed   int64
	budget int
	sql    string
	tables []diffTable
}

type diffTable struct {
	name   string
	schema string // column list for CREATE TABLE
	rows   []string
}

// buildDiffEngine loads the case's tables into a fresh engine with the
// given budget (-1 = unlimited even in the forced-budget CI re-run).
func buildDiffEngine(t *testing.T, c *diffCase, budget int, dir string) (*Engine, error) {
	t.Helper()
	// Two workers, so the suite always exercises the concurrent spill
	// schedule.
	e := NewWithOptions(storage.NewCatalog(), nil,
		Options{Parallelism: 2, ChunkSize: 4, MemBudgetRows: budget, SpillDir: dir})
	for _, tbl := range c.tables {
		if _, err := e.ExecuteSQL(fmt.Sprintf("CREATE TABLE %s (%s)", tbl.name, tbl.schema)); err != nil {
			return nil, err
		}
		if len(tbl.rows) == 0 {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES %s", tbl.name, strings.Join(tbl.rows, ", "))
		if _, err := e.ExecuteSQL(sb.String()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// runDiff executes the case on both engines and returns a description of
// the first divergence ("" when identical). spilled reports whether the
// budgeted run actually hit the spill path.
func runDiff(t *testing.T, c *diffCase, dir string) (diverged string, spilled bool, err error) {
	t.Helper()
	mem, err := buildDiffEngine(t, c, -1, dir)
	if err != nil {
		return "", false, err
	}
	spl, err := buildDiffEngine(t, c, c.budget, dir)
	if err != nil {
		return "", false, err
	}
	want, err := mem.ExecuteSQL(c.sql)
	if err != nil {
		return "", false, fmt.Errorf("in-memory: %w", err)
	}
	gotRes, gotSt := queryWithStats(t, spl, c.sql)
	if len(gotRes.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(gotRes.Rows), len(want.Rows)), gotSt.Spills > 0, nil
	}
	for r := range want.Rows {
		for ci := range want.Rows[r] {
			if !gotRes.Rows[r][ci].Equal(want.Rows[r][ci]) {
				return fmt.Sprintf("row %d col %d: spilled %v != in-memory %v",
					r, ci, gotRes.Rows[r][ci], want.Rows[r][ci]), gotSt.Spills > 0, nil
			}
		}
	}
	return "", gotSt.Spills > 0, nil
}

// shrinkCase delta-removes rows from each table while the divergence
// persists, returning the minimized case.
func shrinkCase(t *testing.T, c *diffCase, dir string) *diffCase {
	t.Helper()
	fails := func(cand *diffCase) bool {
		d, _, err := runDiff(t, cand, dir)
		return err == nil && d != ""
	}
	cur := *c
	for pass := 0; pass < 6; pass++ {
		changed := false
		for ti := range cur.tables {
			chunk := len(cur.tables[ti].rows) / 2
			for chunk >= 1 {
				for start := 0; start+chunk <= len(cur.tables[ti].rows); {
					cand := cur
					cand.tables = append([]diffTable{}, cur.tables...)
					rows := cur.tables[ti].rows
					cand.tables[ti].rows = append(append([]string{}, rows[:start]...), rows[start+chunk:]...)
					if fails(&cand) {
						cur = cand
						changed = true
					} else {
						start += chunk
					}
				}
				chunk /= 2
			}
		}
		if !changed {
			break
		}
	}
	return &cur
}

// reportDiffFailure shrinks and reports a minimal reproducer.
func reportDiffFailure(t *testing.T, c *diffCase, dir, divergence string) {
	t.Helper()
	min := shrinkCase(t, c, dir)
	var b strings.Builder
	fmt.Fprintf(&b, "spill differential diverged (seed %d, budget %d): %s\n", c.seed, c.budget, divergence)
	fmt.Fprintf(&b, "query: %s\nminimal reproducer:\n", min.sql)
	for _, tbl := range min.tables {
		fmt.Fprintf(&b, "  CREATE TABLE %s (%s);\n", tbl.name, tbl.schema)
		if len(tbl.rows) > 0 {
			fmt.Fprintf(&b, "  INSERT INTO %s VALUES %s;\n", tbl.name, strings.Join(tbl.rows, ", "))
		}
	}
	t.Error(b.String())
}

// genValue helpers --------------------------------------------------------

func genKey(rng *rand.Rand, domain int) string {
	if rng.Intn(10) == 0 {
		return "NULL"
	}
	return fmt.Sprint(rng.Intn(domain))
}

func genInt(rng *rand.Rand) string {
	if rng.Intn(12) == 0 {
		return "NULL"
	}
	return fmt.Sprint(rng.Intn(400) - 200)
}

func genStr(rng *rand.Rand) string {
	alphabet := []string{"''", "'a'", "'ab'", "'b'", "'zz'", "'q%d'", "NULL"}
	s := alphabet[rng.Intn(len(alphabet))]
	if strings.Contains(s, "%d") {
		return fmt.Sprintf(s, rng.Intn(6))
	}
	return s
}

// genTables builds the two standard randomized tables. The row counts
// and key domains guarantee the targeted operator state exceeds every
// budget the suite picks (8–31 rows).
func genTables(rng *rand.Rand) []diffTable {
	nl := 60 + rng.Intn(140)
	nr := 50 + rng.Intn(100)
	ldom := 4 + rng.Intn(40)
	rdom := 4 + rng.Intn(40)
	l := diffTable{name: "l", schema: "k INT, a INT, s STRING"}
	for i := 0; i < nl; i++ {
		l.rows = append(l.rows, fmt.Sprintf("(%s, %s, %s)", genKey(rng, ldom), genInt(rng), genStr(rng)))
	}
	r := diffTable{name: "r", schema: "k INT, b INT"}
	for i := 0; i < nr; i++ {
		r.rows = append(r.rows, fmt.Sprintf("(%s, %s)", genKey(rng, rdom), genInt(rng)))
	}
	return []diffTable{l, r}
}

// genQuery produces one randomized query of the given family.
func genQuery(rng *rand.Rand, family string) string {
	desc := func() string {
		if rng.Intn(2) == 0 {
			return " DESC"
		}
		return ""
	}
	switch family {
	case "join":
		q := `SELECT l.k, a, s, b FROM l JOIN r ON l.k = r.k`
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" AND a + b < %d", rng.Intn(200)-50)
		}
		if rng.Intn(3) == 0 {
			q = `SELECT a, b FROM l JOIN r ON l.k = r.k WHERE a > ` + fmt.Sprint(rng.Intn(100)-80)
		}
		if rng.Intn(2) == 0 {
			return q
		}
		// Shapes the one FROM/WHERE planner rearranges: the filters below
		// run under the join, on whichever side they name.
		x, y := rng.Intn(100)-80, rng.Intn(100)+20
		switch rng.Intn(9) {
		case 0: // WHERE filters on each side
			return fmt.Sprintf(`SELECT l.k, a, s, b FROM l JOIN r ON l.k = r.k WHERE a > %d AND b < %d`, x, y)
		case 1: // a single-side ON conjunct, no WHERE
			return fmt.Sprintf(`SELECT l.k, a, b FROM l JOIN r ON l.k = r.k AND b < %d`, y)
		case 2: // single-side and crossing ON conjuncts together
			return fmt.Sprintf(`SELECT l.k, a, b FROM l JOIN r ON l.k = r.k AND a > %d AND a < b + 100`, x)
		case 3: // a filtered derived table as a leaf
			return fmt.Sprintf(`SELECT q.k, q.a, b FROM (SELECT k, a FROM l WHERE a > %d) q JOIN r ON q.k = r.k WHERE b < %d`, x, y)
		case 4: // a chain with a filter on every leaf
			return fmt.Sprintf(`SELECT l.k, a, r.b, r2.b FROM l JOIN r ON l.k = r.k JOIN r AS r2 ON r.k = r2.k
				WHERE a > %d AND r.b < %d AND r2.b > 150`, x, y)
		case 5: // a key usable one step before the clause that declares it
			return `SELECT l.k, a, r.b, r2.b FROM l JOIN r ON a < r.b + 150 JOIN r AS r2 ON r2.b > 150 AND r.k = r2.k AND l.k = r.k`
		case 6: // no equality key: a theta ON, the join on the empty key
			return fmt.Sprintf(`SELECT l.k, a, s, b FROM l JOIN r ON a + b > %d`, 200+rng.Intn(150))
		case 7: // the same through a comma join and WHERE
			return fmt.Sprintf(`SELECT a, b FROM l, r WHERE a > b + %d`, 150+rng.Intn(150))
		default: // a pushed filter that empties the build side (never spills)
			return `SELECT l.k, a, b FROM l JOIN r ON l.k = r.k WHERE b > 1000`
		}
	case "agg":
		aggs := []string{"COUNT(*)", "COUNT(a)", "SUM(a)", "AVG(a)", "MIN(a)", "MAX(a)", "MAX(s)",
			"COUNT(DISTINCT a)", "SUM(DISTINCT a)", "COUNT(DISTINCT s)"}
		rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
		n := 2 + rng.Intn(4)
		q := fmt.Sprintf(`SELECT k, %s FROM l GROUP BY k`, strings.Join(aggs[:n], ", "))
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(4))
		}
		return q
	case "sort":
		keys := [][]string{
			{"s" + desc(), "a" + desc(), "k"},
			{"a" + desc(), "s"},
			{"k" + desc(), "a * 3" + desc()},
			{"a % 7" + desc(), "s", "a"},
		}
		q := `SELECT k, a, s FROM l ORDER BY ` + strings.Join(keys[rng.Intn(len(keys))], ", ")
		if rng.Intn(3) == 0 {
			// A LIMIT cuts the sort's buffer and its runs; the ties of
			// a % 7 check that the cut keeps the stable order.
			q += fmt.Sprintf(" LIMIT %d", rng.Intn(120))
		}
		return q
	case "distinct":
		switch rng.Intn(4) {
		case 0:
			return `SELECT DISTINCT s, a % 5 FROM l` // DISTINCT alone: its group table spills
		case 1:
			return `SELECT DISTINCT s, a % 7 FROM l ORDER BY s, a % 7` + desc()
		default:
			return `SELECT DISTINCT k, s FROM l ORDER BY k` + desc() + `, s`
		}
	case "combo":
		x, y := rng.Intn(100)-80, rng.Intn(100)+20
		switch rng.Intn(5) {
		case 3:
			return fmt.Sprintf(`SELECT r.k, COUNT(*), SUM(a) FROM l JOIN r ON l.k = r.k AND b < %d WHERE a > %d GROUP BY r.k ORDER BY r.k`, y, x) + desc()
		case 4:
			return fmt.Sprintf(`SELECT DISTINCT l.k, b FROM l JOIN r ON l.k = r.k WHERE a > %d AND b < %d ORDER BY l.k, b`, x, y) + desc()
		case 0:
			return `SELECT r.k, COUNT(*), SUM(a) FROM l JOIN r ON l.k = r.k GROUP BY r.k ORDER BY r.k` + desc()
		case 1:
			return `SELECT r.k, SUM(b) FROM l JOIN r ON l.k = r.k GROUP BY r.k HAVING COUNT(*) > 1 ORDER BY SUM(b)` + desc() + `, r.k`
		default:
			return `SELECT DISTINCT l.k, b FROM l JOIN r ON l.k = r.k ORDER BY l.k, b` + desc()
		}
	}
	panic("unknown family")
}

// runDiffFamily drives n seeded cases of one query family.
func runDiffFamily(t *testing.T, family string, n int) {
	dir := t.TempDir()
	spilledCases := 0
	for seed := int64(0); seed < int64(n); seed++ {
		// Scramble the sequential seed (splitmix-style) — adjacent raw
		// seeds correlate badly on the source's first draws.
		h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(len(family))*0xBF58476D1CE4E5B9
		h ^= h >> 31
		rng := rand.New(rand.NewSource(int64(h & 0x7FFFFFFFFFFFFFFF)))
		c := &diffCase{
			seed:   seed,
			budget: 8 + rng.Intn(24),
			sql:    genQuery(rng, family),
			tables: genTables(rng),
		}
		divergence, spilled, err := runDiff(t, c, dir)
		if err != nil {
			t.Fatalf("seed %d (%s): %v\nquery: %s", seed, family, err, c.sql)
		}
		if divergence != "" {
			reportDiffFailure(t, c, dir, divergence)
			return // one minimized reproducer is enough
		}
		if spilled {
			spilledCases++
		}
	}
	// The suite exists to exercise spill paths: require that the large
	// majority of cases actually spilled. (Every family has a spill path —
	// DISTINCT alone included, as an aggregation — but a case whose state
	// fits its budget validates the operators without one.)
	if spilledCases < n*7/10 {
		t.Fatalf("%s: only %d/%d cases spilled — budgets or sizes are off", family, spilledCases, n)
	}
}

func diffCases(t *testing.T) int {
	if testing.Short() {
		return 12
	}
	return 110
}

func TestSpillDifferentialJoin(t *testing.T)     { runDiffFamily(t, "join", diffCases(t)) }
func TestSpillDifferentialAgg(t *testing.T)      { runDiffFamily(t, "agg", diffCases(t)) }
func TestSpillDifferentialSort(t *testing.T)     { runDiffFamily(t, "sort", diffCases(t)) }
func TestSpillDifferentialDistinct(t *testing.T) { runDiffFamily(t, "distinct", diffCases(t)) }
func TestSpillDifferentialCombo(t *testing.T)    { runDiffFamily(t, "combo", diffCases(t)) }

// ---- randomized secure aggregates ---------------------------------------

var (
	diffSecretOnce sync.Once
	diffSecret     *secure.Secret
	diffSecretErr  error
)

func diffSecretShared(t *testing.T) *secure.Secret {
	diffSecretOnce.Do(func() {
		diffSecret, diffSecretErr = secure.Setup(512, 62, 80)
	})
	if diffSecretErr != nil {
		t.Fatal(diffSecretErr)
	}
	return diffSecret
}

// TestSpillDifferentialSecureAgg randomizes the secure aggregates: every
// case encrypts a fresh value set under the shared scheme, groups it,
// and compares sdb_min/sdb_max/SUM shares between an unlimited and a
// forced-spill engine. Tags are deterministic, so the winning shares
// must be bit-identical.
func TestSpillDifferentialSecureAgg(t *testing.T) {
	if testing.Short() {
		t.Skip("secure randomized differential is slow")
	}
	s := diffSecretShared(t)
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		n := 24 + rng.Intn(24)
		groups := 5 + rng.Intn(6)

		build := func(budget int) *Engine {
			e := NewWithOptions(storage.NewCatalog(), s.N(),
				Options{Parallelism: 2, ChunkSize: 4, MemBudgetRows: budget,
					SpillDir: t.TempDir()})
			if _, err := e.ExecuteSQL(`CREATE TABLE enc (id INT, grp INT, v INT SENSITIVE, m INT SENSITIVE)`); err != nil {
				t.Fatal(err)
			}
			return e
		}
		mem, spl := build(-1), build(8)

		ck, _ := s.NewColumnKey()
		mk, _ := s.NewColumnKey()
		valRng := rand.New(rand.NewSource(seed * 31))
		for i := 0; i < n; i++ {
			v := int64(valRng.Intn(2000) - 1000)
			rid, _ := s.NewRowID()
			w := s.RowHelper(rid)
			ve, err := s.EncryptInt64(v, rid, ck)
			if err != nil {
				t.Fatal(err)
			}
			mask, _ := s.NewMaskValue()
			me, err := s.EncryptMask(mask, rid, mk)
			if err != nil {
				t.Fatal(err)
			}
			sql := fmt.Sprintf(
				"INSERT INTO enc (id, grp, v, m, row_id, sdb_w) VALUES (%d, %d, 0x%s, 0x%s, 0x1, 0x%s)",
				i, i%groups, ve.Text(16), me.Text(16), w.Text(16))
			for _, e := range []*Engine{mem, spl} {
				if _, err := e.ExecuteSQL(sql); err != nil {
					t.Fatal(err)
				}
			}
		}

		flat, _ := s.FlatKey()
		mflat, _ := s.FlatKey()
		reveal := bigmod.Mul(flat.M, mflat.M, s.N())
		ktok, _ := s.KeyUpdateToken(ck, flat)
		mtok, _ := s.KeyUpdateToken(mk, mflat)
		tagV := fmt.Sprintf("sdb_keyupdate(v, sdb_w, 0x%s, 0x%s, 0x%s)", ktok.P.Text(16), ktok.Q.Text(16), s.N().Text(16))
		tagM := fmt.Sprintf("sdb_keyupdate(m, sdb_w, 0x%s, 0x%s, 0x%s)", mtok.P.Text(16), mtok.Q.Text(16), s.N().Text(16))
		sql := fmt.Sprintf(
			`SELECT grp, sdb_min(%s, %s, 0x%s, 0x%s), sdb_max(%s, %s, 0x%s, 0x%s), SUM(%s), COUNT(*) FROM enc GROUP BY grp`,
			tagV, tagM, reveal.Text(16), s.N().Text(16),
			tagV, tagM, reveal.Text(16), s.N().Text(16),
			tagV)

		want, wantSt := queryWithStats(t, mem, sql)
		got, gotSt := queryWithStats(t, spl, sql)
		if wantSt.Spills != 0 {
			t.Fatalf("seed %d: unlimited secure engine spilled", seed)
		}
		if gotSt.Spills == 0 {
			t.Fatalf("seed %d: budgeted secure engine did not spill (%+v)", seed, gotSt)
		}
		requireSameRows(t, fmt.Sprintf("secure seed %d", seed), got, want)
	}
}
