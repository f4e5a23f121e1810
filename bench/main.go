// Command bench measures the SDB stack end to end on four named workloads
// and, in a separate traced run, layer by layer. BENCHMARK.json at the
// repository root declares the workloads and the metrics; README.md in
// this directory says what each one is for.
//
//	bash bench/run.sh --seed 42                       # all four workloads, untraced
//	bash bench/run.sh --seed 42 --trace 1             # untraced and traced, with the tracing overhead
//	bash bench/run.sh --workload wire-fetch --seed 7  # one workload; last line is the result object
//	bash bench/run.sh --repeat 5 --seed 1             # five suites on seeds 1..5, with spreads
//	bash bench/run.sh --compare a.json b.json         # two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// outDir holds everything a run writes; run.sh points TMPDIR below it too.
const outDir = "out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: all four, each in a child process)")
	seed := fs.Int64("seed", 42, "seed of the generated data, key choices and operation order")
	seconds := fs.Float64("seconds", -1, "length of the timed loop (default: run_seconds of BENCHMARK.json; 0 at -scale tiny, which runs one round)")
	trace := fs.Int("trace", 0, "1 = traced run, reporting the per-layer metrics")
	scale := fs.String("scale", "full", "full or tiny (smoke-test sizes)")
	repeat := fs.Int("repeat", 1, "run the suite this many times on consecutive seeds and report spreads")
	compare := fs.Bool("compare", false, "compare two result files given as arguments against the bounds")
	allowFailures := fs.Bool("allow-failures", false, "exit 0 even when an operation failed or an answer was wrong")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *scale != "full" && *scale != "tiny" {
		return fail(fmt.Errorf("unknown -scale %q (want full or tiny)", *scale))
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, tiny: *scale == "tiny"}
	if cfg.seconds < 0 {
		cfg.seconds = float64(spec.RunSeconds)
		if cfg.tiny {
			cfg.seconds = 0
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}

	if cfg.workload == "" {
		ok, err := runSuite(spec, cfg, *repeat, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if !ok && !*allowFailures {
			return 1
		}
		return 0
	}

	rec, err := runOne(spec, cfg)
	if err != nil {
		return fail(err)
	}
	rec.print(stdout)
	if err := writeJSON(rec.path(), rec); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(rec.contractLine())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct && !*allowFailures {
		return 1
	}
	return 0
}

// facts identify the machine and the settings a result came from.
type facts struct {
	NProc           int     `json:"nproc"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Scale           string  `json:"scale"`
	ModulusBits     int     `json:"modulus_bits"`
	Fsync           string  `json:"fsync"`
	CheckpointEvery int     `json:"checkpoint_every"`
	Traced          bool    `json:"traced"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload: the metrics BENCHMARK.json declares
// for the run's mode, and everything else worth keeping as detail.
type record struct {
	Workload  string                 `json:"workload"`
	Facts     facts                  `json:"facts"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]metricValue `json:"detail"`
}

func (r *record) path() string {
	name := r.Workload
	if r.Facts.Traced {
		name += ".traced"
	}
	return filepath.Join(outDir, "run-"+name+".json")
}

func (r *record) contractLine() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// runOne runs one workload in this process and turns what it measured
// into the declared metrics.
func runOne(spec *benchSpec, cfg config) (*record, error) {
	if !spec.hasWorkload(cfg.workload) {
		return nil, fmt.Errorf("workload %q is not declared in BENCHMARK.json", cfg.workload)
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	res, err := runWorkload(cfg, tr)
	if err != nil {
		return nil, err
	}
	scale := "full"
	if cfg.tiny {
		scale = "tiny"
	}
	rec := &record{
		Workload: cfg.workload,
		Facts: facts{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commitID(), Seed: cfg.seed,
			Seconds: cfg.seconds, Scale: scale, ModulusBits: modulusBits, Fsync: oltpFsync,
			CheckpointEvery: oltpCheckpointEvery, Traced: cfg.traced},
		Metrics: make(map[string]metricValue),
		Detail:  make(map[string]metricValue),
	}
	rec.Attempted = len(res.samples)
	rec.Failed = rec.Attempted - res.correct() + res.lost
	rec.Correct = rec.Failed == 0
	if res.firstErr != nil {
		rec.FirstErr = res.firstErr.Error()
	}

	lat := latencies(res.samples, res.latencyOf)
	byClass := make(map[string][]float64) // ms, correct operations only
	for _, s := range res.samples {
		if s.ok {
			byClass[s.class] = append(byClass[s.class], ms(s.latency))
		}
	}
	var setups []float64
	for _, d := range res.setups {
		setups = append(setups, d.Seconds())
	}
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   res.opsPerSec(),
		"p50_ms":      typicalLatency(byClass, res.latencyOf),
		"p90_ms":      percentile(lat, 0.9),
		"peak_rss_mb": res.rssMiB,
	}
	// End-to-end in nature but defined on one or two workloads only, so
	// declared with the per-layer metrics; cheap enough to keep untraced too.
	writes := latencies(res.samples, []string{"write"})
	ungated := map[string]float64{
		"write_p50_ms":            percentile(writes, 0.5),
		"write_p90_ms":            percentile(writes, 0.9),
		"wire_bytes_per_op":       wireBytesPerOp(res),
		"wire.round_trips_per_op": ratio(float64(res.trips), float64(rec.Attempted)),
	}
	declared, values, detail := spec.EndToEnd, e2e, ungated
	if cfg.traced {
		for name, v := range ungated {
			res.layers[name] = v
		}
		declared, values, detail = spec.PerLayer, res.layers, e2e
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok && !cfg.traced { // a traced run reports 0 for a layer it bypasses
			return nil, fmt.Errorf("BENCHMARK.json declares %q, which this program does not measure", m.Name)
		}
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for name := range values {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
	}
	for name, v := range detail {
		rec.Detail[name] = metricValue{v, spec.unit(name)}
	}

	d := rec.Detail
	d["latency_samples"] = metricValue{float64(len(lat)), "count"}
	d["fail_ratio"] = metricValue{ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio"}
	d["lost_rows"] = metricValue{float64(res.lost), "count"}
	d["wall_s"] = metricValue{res.wall.Seconds(), "s"}
	for class, r := range res.replays {
		d["class."+class+".engine_ms"] = metricValue{ms(r.exec), "ms"}
		d["class."+class+".spills"] = metricValue{float64(r.stats.Spills), "count"}
	}
	for class, vals := range byClass {
		d["class."+class+".p50_ms"] = metricValue{median(vals), "ms"}
		d["class."+class+".ops"] = metricValue{float64(len(vals)), "count"}
	}
	return rec, nil
}

func (r *result) correct() int {
	n := 0
	for _, s := range r.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// opsPerSec is the throughput of completed-and-correct operations.
func (r *result) opsPerSec() float64 {
	return r.roundRate * ratio(float64(r.correct()), float64(len(r.samples)))
}

// typicalLatency is p50_ms: the median latency of each statement class,
// combined over the classes by geometric mean. With one class it is the
// plain median. Over a mix of classes whose latencies lie decades apart,
// the plain median of all samples is the median of whichever class ranks
// in the middle, and jumps when two classes swap ranks; this moves by
// the same factor whichever class changes.
func typicalLatency(byClass map[string][]float64, classes []string) float64 {
	var logSum float64
	n := 0
	for class, vals := range byClass {
		if classes != nil && !slices.Contains(classes, class) {
			continue
		}
		logSum += math.Log(median(vals))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func (r *record) print(w io.Writer) {
	mode := "untraced"
	if r.Facts.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, %g s, scale %s, %d cores, %s, %d-bit modulus, fsync %s, checkpoint every %d, commit %s)\n",
		r.Workload, mode, r.Facts.Seed, r.Facts.Seconds, r.Facts.Scale, r.Facts.NProc, r.Facts.GoVersion,
		r.Facts.ModulusBits, r.Facts.Fsync, r.Facts.CheckpointEvery, r.Facts.Commit)
	fmt.Fprintf(w, "  attempted %d, failed %d, latency samples %.0f\n", r.Attempted, r.Failed, r.Detail["latency_samples"].Value)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstErr)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	printMap := func(m map[string]metricValue) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m[name].Value, m[name].Unit)
		}
	}
	printMap(r.Metrics)
	fmt.Fprintln(tw, "  --\t\t")
	printMap(r.Detail)
	tw.Flush()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commitID reads the checked-out commit from the repository's .git, if
// there is one (the benchmark also runs from plain copies of the tree).
func commitID() string {
	gitDir := filepath.Join("..", ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
