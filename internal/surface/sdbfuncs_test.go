package surface

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/storage"
	"sdb/internal/tpch"
)

// recorder is an Executor that notes every statement the proxy hands the
// SP before passing it on.
type recorder struct {
	proxy.Executor
	sent []string
}

func (r *recorder) ExecuteSQL(sql string) (*engine.Result, error) {
	r.sent = append(r.sent, sql)
	return r.Executor.ExecuteSQL(sql)
}

func (r *recorder) PrepareStream(sql string) (engine.PreparedStmt, error) {
	r.sent = append(r.sent, sql)
	return r.Executor.PrepareStream(sql)
}

// engineSDBNames returns every SDB name ("sdb_…" string literal) a
// non-test file of internal/engine spells: the functions and columns the
// SP is prepared to see in a statement.
func engineSDBNames(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(moduleRoot(t), "internal", "engine", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	name := regexp.MustCompile(`^sdb_\w+`)
	seen := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					if m := name.FindString(s); m != "" {
						seen[m] = true
					}
				}
			}
			return true
		})
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestEngineSDBNamesAreSent is the gate on the SP's SDB functions: every
// SDB name the engine compiles must occur in the SQL a proxy sends for a
// fixed data-owner corpus — the TPC-H schema, one INSERT, every TPC-H query
// the rewriter accepts (prepared, not run), both key rotations, and a
// masked MIN/MAX and comparison on a sensitive column. A name no DO sends
// is SP code that no deployment reaches: delete it, or add the proxy path
// that emits it.
func TestEngineSDBNamesAreSent(t *testing.T) {
	secret, err := secure.Setup(512, secure.DefaultValueBits, secure.DefaultMaskBits)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{Executor: engine.New(storage.NewCatalog(), secret.N())}
	p, err := proxy.New(secret, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range tpch.CreateStatements() {
		if _, err := p.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Exec(`INSERT INTO lineitem VALUES (1, 1, 1, 1, 17, 1234.50, 0.05, 0.02, 'N', 'O', ` +
		`'1998-01-01', '1998-01-20', '1998-01-25', 'MAIL')`); err != nil {
		t.Fatal(err)
	}
	prepare := func(sql string) error {
		st, err := p.Prepare(sql)
		if err != nil {
			return err
		}
		return st.Close()
	}
	for _, q := range tpch.Queries() {
		if err := prepare(q.SQL); err != nil {
			t.Logf("Q%d not prepared: %v", q.Num, err)
		}
	}
	if _, err := p.RotateColumn("lineitem", "l_quantity"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RotateMask("lineitem"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT MIN(l_quantity), MAX(l_quantity) FROM lineitem`,
		`SELECT l_orderkey FROM lineitem WHERE l_quantity > 10`,
	} {
		if err := prepare(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	names := engineSDBNames(t)
	if len(names) == 0 {
		t.Fatal("no sdb_ string literal found in internal/engine: the scan is broken")
	}
	sent := strings.Join(rec.sent, "\n")
	var unsent []string
	for _, n := range names {
		if !regexp.MustCompile(`\b` + n + `\b`).MatchString(sent) {
			unsent = append(unsent, n)
		}
	}
	if len(unsent) > 0 {
		t.Errorf("internal/engine compiles %s, which no statement of the DO corpus sends: delete it from the SP, or add the proxy path that emits it",
			strings.Join(unsent, ", "))
	}
}
