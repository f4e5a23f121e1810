// Package surface holds the exported-surface gate: every exported
// top-level name and method declared in a non-test file of the root module
// is mentioned by a non-test file other than its declaration — the product
// calls it — or is on the allow-list below with its reason. A name only
// tests call belongs in the _test.go files of its package; a name nothing
// calls is deleted. The bench/ module counts as a caller, so a shim kept for
// the benchmark is flagged by itself once bench/ stops using it.
//
// The check is syntactic (go/ast, no type checker), so it is coarse where
// types would be precise: a method counts as called when a selector of its
// name, or an interface listing it, appears in its own package or in one
// that reaches it through imports (bench/ included). A go/types recount is
// the precise census; this gate keeps the surface from growing back.
package surface

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowed names what stays exported although no non-test file calls it,
// keyed as the gate prints a finding: package directory, then the receiver
// type for a method, then the name.
var allowed = map[string]string{
	// The driver package is the product's API for database/sql users; the
	// methods below implement database/sql/driver interfaces, and
	// database/sql calls them.
	"driver.OpenDB":              "public API: wraps a caller's proxy in a database/sql pool",
	"driver.Connector.Driver":    "database/sql/driver.Connector method",
	"driver.Driver.Open":         "database/sql/driver.Driver method",
	"driver.conn.Begin":          "database/sql/driver.Conn method",
	"driver.conn.Prepare":        "database/sql/driver.Conn method",
	"driver.result.LastInsertId": "database/sql/driver.Result method",
	"driver.result.RowsAffected": "database/sql/driver.Result method",
	"driver.stmt.Exec":           "database/sql/driver.Stmt method",
	"driver.stmt.NumInput":       "database/sql/driver.Stmt method",

	// Methods the standard library calls through its interfaces.
	"internal/attack.Finding.String":     "fmt.Stringer method",
	"internal/secure.Params.MarshalJSON": "encoding/json.Marshaler method",
	"internal/secure.Secret.MarshalJSON": "encoding/json.Marshaler method",

	"internal/race.Enabled": "build-tag constant that allocation-count tests read to skip their counts under -race",

	// Deliberate cross-package test hooks and fixtures.
	"internal/engine.Engine.SetCommitHook": "test hook: engine, server and WAL tests park a commit between its phases",
	"internal/secure.ResetHelperPowers":    "test hook: integration tests count helper-power memo misses from zero",
	"internal/secure.Secret.KeyTableStats": "test hook: the proxy's decrypt-race tests count comb-table builds",
	"internal/tpch.CommaForm":              "test fixture: the engine plans every TPC-H JOIN query against its comma form",
	"internal/types.Value.Equal":           "test comparator: six packages' differentials compare result cells with it",

	// The scalar reference algebra of secure/ops.go is one oracle file:
	// bench/ pins Multiply, SubShares and MaskedSign, and these two stay
	// beside them until the benchmark stops timing the scalar operators.
	"internal/secure.AddShares": "scalar reference algebra: the row-program differentials' oracle",
	"internal/secure.SumShares": "scalar reference algebra: the secure package's SUM oracle",

	"internal/proxy.Proxy.RotateMask": "the paper's key rotation for the comparison-mask column, RotateColumn's twin; no product surface yet",
}

// pkgFiles is one package directory's parsed non-test files.
type pkgFiles struct {
	dir     string // relative to the module root, "/"-separated
	path    string // import path
	files   []*ast.File
	imports map[string]bool // import paths named by any of files
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}

// parseTree parses every non-test .go file of the module rooted at
// root/sub, one entry per directory, skipping testdata, hidden directories
// and the directories in skip (relative to root): the bench module inside
// the root module, and the build products under bench/out.
func parseTree(t *testing.T, fset *token.FileSet, root, sub, modPath string, skip map[string]bool) []*pkgFiles {
	t.Helper()
	byDir := map[string]*pkgFiles{}
	err := filepath.WalkDir(filepath.Join(root, sub), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (skip[rel] || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pf := byDir[dir]
		if pf == nil {
			path := modPath
			if rest := strings.TrimPrefix(strings.TrimPrefix(dir, sub), "/"); rest != "" && rest != "." {
				path += "/" + rest
			}
			pf = &pkgFiles{dir: dir, path: path, imports: map[string]bool{}}
			byDir[dir] = pf
		}
		pf.files = append(pf.files, f)
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			pf.imports[ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*pkgFiles
	for _, pf := range byDir {
		out = append(out, pf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dir < out[j].dir })
	return out
}

// decl is one exported declaration: its gate key and the identifier that
// declares it (which is not a mention of itself).
type decl struct {
	key   string
	name  string
	recv  string // receiver type name for a method, "" otherwise
	ident *ast.Ident
	pkg   *pkgFiles
}

func recvName(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func declarations(pf *pkgFiles) []decl {
	var ds []decl
	add := func(id *ast.Ident, recv string) {
		if !id.IsExported() {
			return
		}
		key := pf.dir + "." + id.Name
		if recv != "" {
			key = pf.dir + "." + recv + "." + id.Name
		}
		if pf.dir == "." {
			key = strings.TrimPrefix(key, "..")
		}
		ds = append(ds, decl{key: key, name: id.Name, recv: recv, ident: id, pkg: pf})
	}
	for _, f := range pf.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "")
				} else if r := recvName(d); r != "" {
					add(d.Name, r)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "")
						}
					}
				}
			}
		}
	}
	return ds
}

// mentions is what one package's non-test files name: bare identifiers
// (top-level names of the package itself), package-qualified selectors
// (import path + name) and other selectors and interface methods (method
// names).
type mentions struct {
	bare      map[string][]*ast.Ident
	qualified map[string]bool
	methods   map[string]bool
}

func collect(pf *pkgFiles) mentions {
	m := mentions{bare: map[string][]*ast.Ident{}, qualified: map[string]bool{}, methods: map[string]bool{}}
	for _, f := range pf.files {
		local := map[string]string{} // file's import names -> import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = ip
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := local[x.Name]; ok {
						m.qualified[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				m.methods[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, fld := range n.Methods.List {
					for _, name := range fld.Names {
						m.methods[name.Name] = true
					}
				}
			case *ast.Ident:
				if !sels[n] {
					m.bare[n.Name] = append(m.bare[n.Name], n)
				}
			}
			return true
		})
	}
	return m
}

// exported is one exported name of the root module as the gate sees it.
type exported struct {
	called bool
	// shared marks a method whose name another root-module method also
	// has: syntax cannot tell which of them a selector calls.
	shared bool
}

// scan reports every exported declaration of the root module's non-test
// files, keyed as the allow-list is, and whether a non-test file other
// than the declaration mentions it.
func scan(t *testing.T) map[string]*exported {
	fset := token.NewFileSet()
	root := moduleRoot(t)
	pkgs := parseTree(t, fset, root, ".", "sdb", map[string]bool{"bench": true})
	callers := append([]*pkgFiles(nil), pkgs...)
	callers = append(callers, parseTree(t, fset, root, "bench", "sdb/bench", map[string]bool{"bench/out": true})...)
	ments := map[*pkgFiles]mentions{}
	for _, pf := range callers {
		ments[pf] = collect(pf)
	}
	closeImports(callers)

	var decls []decl
	for _, pf := range pkgs {
		decls = append(decls, declarations(pf)...)
	}
	declIdents := map[string]map[*ast.Ident]bool{} // a name declared twice (build tags) is not its own caller
	methodTypes := map[string]map[string]bool{}    // method name -> receiver keys
	for _, d := range decls {
		if declIdents[d.key] == nil {
			declIdents[d.key] = map[*ast.Ident]bool{}
		}
		declIdents[d.key][d.ident] = true
		if d.recv != "" {
			if methodTypes[d.name] == nil {
				methodTypes[d.name] = map[string]bool{}
			}
			methodTypes[d.name][d.pkg.dir+"."+d.recv] = true
		}
	}
	out := map[string]*exported{}
	for _, d := range decls {
		e := out[d.key]
		if e == nil {
			e = &exported{shared: len(methodTypes[d.name]) > 1 && d.recv != ""}
			out[d.key] = e
		}
		e.called = e.called || mentioned(d, declIdents[d.key], callers, ments)
	}
	return out
}

// closeImports extends each package's imports to the module packages it
// reaches through them: a method is called on values a package gets from
// an API it imports, without naming the method's own package.
func closeImports(pkgs []*pkgFiles) {
	byPath := map[string]*pkgFiles{}
	for _, pf := range pkgs {
		byPath[pf.path] = pf
	}
	for changed := true; changed; {
		changed = false
		for _, pf := range pkgs {
			for ip := range pf.imports {
				dep := byPath[ip]
				if dep == nil {
					continue
				}
				for ip2 := range dep.imports {
					if !pf.imports[ip2] {
						pf.imports[ip2] = true
						changed = true
					}
				}
			}
		}
	}
}

func mentioned(d decl, self map[*ast.Ident]bool, callers []*pkgFiles, ments map[*pkgFiles]mentions) bool {
	for _, pf := range callers {
		m := ments[pf]
		if d.recv != "" {
			if (pf == d.pkg || pf.imports[d.pkg.path]) && m.methods[d.name] {
				return true
			}
			continue
		}
		if m.qualified[d.pkg.path+"."+d.name] {
			return true
		}
		if pf == d.pkg {
			for _, id := range m.bare[d.name] {
				if !self[id] {
					return true
				}
			}
		}
	}
	return false
}

// TestExportedSurfaceIsCalled is the gate: every uncalled exported name is
// allow-listed, and every allow-list entry names an uncalled one. An entry
// for a method whose name another method shares is checked for existence
// only, since a selector of that name may call either.
func TestExportedSurfaceIsCalled(t *testing.T) {
	names := scan(t)
	var keys []string
	for key := range names {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := allowed[key]; !ok && !names[key].called {
			t.Errorf("%s is exported but no non-test file calls it: delete it, move it into its package's _test.go files, or allow-list it with a reason", key)
		}
	}
	for key, reason := range allowed {
		switch e := names[key]; {
		case e == nil:
			t.Errorf("allow-list entry %s (%s) names nothing the root module declares", key, reason)
		case e.called && !e.shared:
			t.Errorf("allow-list entry %s (%s) is no longer needed: a non-test file calls it", key, reason)
		}
	}
}
