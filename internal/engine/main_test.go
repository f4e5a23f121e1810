package engine

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"sdb/internal/storage"
)

// The CI re-runs of this package (scripts/ci.sh) select their mode here:
//
//	go test ./internal/engine -args -engine.mem-budget=48
//	go test ./internal/engine -args -engine.planner=off
//
// Both reach the engines a test builds without pinning the corresponding
// option, through testDefaults; tests that pin a budget or a planner mode
// are unaffected. TestForcedModeTookEffect fails a re-run whose flag did
// not reach them.
var (
	forcedBudget  = flag.Int("engine.mem-budget", 0, "resident-row budget of engines built without one (0 = unlimited)")
	forcedPlanner = flag.String("engine.planner", "", `planner mode of engines built without one ("off" = naive plans)`)
)

// TestMain pins the spill hygiene contract for the whole package: every
// engine an engine test builds without a SpillDir spills under one guarded
// directory, and that directory must be empty when the tests finish — a
// leaked per-query spill dir is a failure even if every functional
// assertion passed. Tests that pass an explicit Options.SpillDir use
// t.TempDir(), whose cleanup enforces the same thing per test.
func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "engine-spill-guard-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "spill guard: %v\n", err)
		os.Exit(1)
	}
	testDefaults = Options{MemBudgetRows: *forcedBudget, SpillDir: dir, Planner: *forcedPlanner}
	code := m.Run()
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spill guard: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if len(entries) > 0 {
		fmt.Fprintf(os.Stderr, "spill guard: %d entries leaked in %s:\n", len(entries), dir)
		for _, e := range entries {
			fmt.Fprintf(os.Stderr, "  %s\n", e.Name())
		}
		if code == 0 {
			code = 1
		}
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestForcedModeTookEffect runs one spill-sized join on an engine built
// with zero Options and requires what the run's mode promises: spills
// exactly when a budget is forced, a filter left on the join exactly when
// the planner is forced off. A re-run whose flag was misspelt, or whose
// default stopped reaching applyOptions, fails here instead of passing as
// a second copy of the default run.
func TestForcedModeTookEffect(t *testing.T) {
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE a (k INT, v INT)`)
	mustExec(t, e, `CREATE TABLE b (k INT, d INT)`)
	engines := []*Engine{e}
	loadRows(t, engines, "a", 400, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i) })
	loadRows(t, engines, "b", 400, func(i int) string { return fmt.Sprintf("(%d, %d)", i, 2*i) })
	const sql = `SELECT a.k, v, d FROM a, b WHERE a.k = b.k AND v < 300`

	res, st := queryWithStats(t, e, sql)
	if len(res.Rows) != 300 {
		t.Fatalf("joined %d rows, want 300", len(res.Rows))
	}
	if forced := *forcedBudget > 0; (st.Spills > 0) != forced {
		t.Errorf("-engine.mem-budget=%d: %d spills (budget in effect %d)", *forcedBudget, st.Spills, st.BudgetRows)
	}
	sig, err := planSig(e, sql)
	if err != nil {
		t.Fatal(err)
	}
	if off := *forcedPlanner == "off"; filterOnJoin(sig) != off {
		t.Errorf("-engine.planner=%q: plan %s", *forcedPlanner, sig)
	}
}
