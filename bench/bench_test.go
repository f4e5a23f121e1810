package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// inProcess are the workloads with no wire and no server in the path.
var inProcess = map[string]bool{"tpch-mem": true, "plain-spill": true}

func tinyRun(t *testing.T, spec *benchSpec, workload string, traced, corruptOracle bool) *record {
	t.Helper()
	rec, err := runOne(spec, config{workload: workload, seed: 7, tiny: true, traced: traced, corruptOracle: corruptOracle})
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return rec
}

func setup(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Everything a run creates outside out/ goes under TMPDIR, which must
	// be empty again afterwards. Leaked goroutines fail the run itself.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	t.Cleanup(func() {
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s outlived the run", e.Name())
		}
	})
	return spec
}

func requireNames(t *testing.T, what string, got map[string]metricValue, declared []metricSpec) {
	t.Helper()
	if len(got) != len(declared) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(declared))
	}
	for _, m := range declared {
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: declared name %q is not well-formed", what, m.Name)
		}
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: declared metric %q is not reported", what, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks what the result must always satisfy.
func TestSmoke(t *testing.T) {
	spec := setup(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		plain := tinyRun(t, spec, w.Name, false, false)
		traced := tinyRun(t, spec, w.Name, true, false)
		for _, rec := range []*record{plain, traced} {
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s: correct %v, attempted %d, failed %d: %s", w.Name, rec.Correct, rec.Attempted, rec.Failed, rec.FirstErr)
			}
		}
		requireNames(t, w.Name+" untraced", plain.Metrics, spec.EndToEnd)
		requireNames(t, w.Name+" traced", traced.Metrics, spec.PerLayer)
		for _, m := range spec.EndToEnd {
			if plain.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, plain.Metrics[m.Name].Value)
			}
		}
		if _, err := os.Stat(outDir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}

		for name, v := range traced.Metrics {
			layer, _, _ := strings.Cut(name, ".")
			switch {
			case layer == "spill" && w.Name == "plain-spill":
				if v.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, v.Value)
				}
			case layer == "spill", layer == "wal" && w.Name != "oltp-durable",
				(layer == "wire" || layer == "server" || name == "wire_bytes_per_op") && inProcess[w.Name],
				layer == "secure" && w.Name == "plain-spill":
				if v.Value != 0 {
					t.Errorf("%s: %s = %v, want 0: the workload bypasses that layer", w.Name, name, v.Value)
				}
			}
		}
		// The decorators must not change the path the proxy takes.
		if got, want := traced.Metrics["wire.round_trips_per_op"].Value, plain.Detail["wire.round_trips_per_op"].Value; got != want {
			t.Errorf("%s: %v round trips per op traced, %v untraced", w.Name, got, want)
		}
		if d := traced.Metrics["server.stmt_ledger_delta"].Value; d != 0 {
			t.Errorf("%s: statement ledger off by %v", w.Name, d)
		}
		if !inProcess[w.Name] && traced.Metrics["server.direct_execs"].Value == 0 {
			t.Errorf("%s: no statement took the fused op", w.Name)
		}
	}
}

// TestWrongAnswerIsCounted corrupts one oracle row per workload: the run
// must finish and report the failure, not pass and not abort.
func TestWrongAnswerIsCounted(t *testing.T) {
	spec := setup(t)
	for _, w := range spec.Workloads {
		rec := tinyRun(t, spec, w.Name, false, true)
		if rec.Correct || rec.Failed == 0 || !strings.Contains(rec.FirstErr, "oracle has") {
			t.Errorf("%s: a corrupted oracle row went unnoticed: correct %v, failed %d of %d, first error %q",
				w.Name, rec.Correct, rec.Failed, rec.Attempted, rec.FirstErr)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 7, 9, 10, 12, 20], n=4) == [2.75, 6.0, 10.5]
	q1, q3 := quartiles([]float64{20, 1, 9, 2, 12, 3, 4, 10, 5, 7})
	if q1 != 2.75 || q3 != 10.5 {
		t.Errorf("quartiles = %v, %v; want 2.75, 10.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m              metricSpec
		a, b, spA, spB float64
		want           string
	}{
		{lower, 10, 11.5, 0.02, 0.02, "worse"},
		{lower, 10, 10.5, 0.02, 0.02, "same"},
		{lower, 10, 9, 0.02, 0.02, "better"},
		{lower, 10, 12, 0.2, 0.02, "unresolved"},
		{higher, 100, 85, 0.01, 0.01, "worse"},
		{higher, 100, 120, 0.01, 0.01, "better"},
		{metricSpec{Name: "wal.records"}, 1, 2, 0, 0, "-"},
	} {
		if got := verdict(c.m, c.a, c.b, c.spA, c.spB); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
