package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// resultFile is out/result.json: every run of a suite, or of -repeat N
// suites on consecutive seeds.
type resultFile struct {
	Runs []record `json:"runs"`
}

// runSuite runs every declared workload in a child process of its own, so
// peak_rss_mb belongs to one workload, and gathers the children's records.
func runSuite(spec *benchSpec, cfg config, repeat int, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	modes := []bool{false}
	if cfg.traced {
		modes = append(modes, true)
	}
	var file resultFile
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range spec.Workloads {
			for _, traced := range modes {
				rec := record{Workload: w.Name, Facts: facts{Traced: traced}}
				os.Remove(rec.path())
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(rep), 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-allow-failures"}
				if traced {
					args = append(args, "-trace", "1")
				}
				if cfg.tiny {
					args = append(args, "-scale", "tiny")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = stdout, stderr
				if err := cmd.Run(); err != nil {
					return false, fmt.Errorf("%s: %w", w.Name, err)
				}
				data, err := os.ReadFile(rec.path())
				if err != nil {
					return false, err
				}
				if err := json.Unmarshal(data, &rec); err != nil {
					return false, err
				}
				ok = ok && rec.Correct
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, &file); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\n%d runs written to %s\n\n", len(file.Runs), filepath.Join("bench", path))
	summarize(spec, &file, stdout)
	return ok, nil
}

type seriesKey struct {
	workload string
	metric   string
}

// series collects, per workload and declared metric, the values of every
// run in the file. End-to-end metrics come from untraced runs only and
// per-layer metrics from traced runs only, as their records hold them.
func (f *resultFile) series() map[seriesKey][]float64 {
	out := make(map[seriesKey][]float64)
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// summarize prints every declared metric per workload: the value, or with
// several runs the median, quartiles and spreads. Per-layer metrics that
// are 0 on every run (the workload bypasses the layer) are left out.
func summarize(spec *benchSpec, f *resultFile, w io.Writer) {
	series := f.series()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmedian\tq1\tq3\tiqr/median\trange/median")
	for _, wl := range spec.Workloads {
		for _, m := range spec.metrics() {
			vals := series[seriesKey{wl.Name, m.Name}]
			if len(vals) == 0 || (m.Bound == 0 && median(vals) == 0 && fullRange(vals) == 0) {
				continue
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t%.3f\n",
				wl.Name, m.Name, m.Unit, len(vals), median(vals), q1, q3, spread(vals), fullRange(vals))
		}
		traced := series[seriesKey{wl.Name, "trace.ops_per_s"}]
		plain := series[seriesKey{wl.Name, "ops_per_s"}]
		if len(traced) > 0 && len(plain) > 0 {
			fmt.Fprintf(tw, "%s\ttracing overhead (traced - untraced ops_per_s)\t1/s\t\t%.6g\t\t\t\t\n",
				wl.Name, median(traced)-median(plain))
		}
	}
	tw.Flush()
}

// compareFiles prints, for every workload and declared metric both files
// hold, the two medians, their ratio with its base, and a verdict against
// the metric's bound.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := files[0].series(), files[1].series()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta (base: %s)\tb (%s)\tb/a\tbound\tspread a\tspread b\tverdict\n", pathA, pathB)
	for _, wl := range spec.Workloads {
		for _, m := range spec.metrics() {
			va, vb := a[seriesKey{wl.Name, m.Name}], b[seriesKey{wl.Name, m.Name}]
			ma, mb := median(va), median(vb)
			if len(va) == 0 || len(vb) == 0 || (m.Bound == 0 && ma == 0 && mb == 0) {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%s\t%.3f\t%.3f\t%s\n", wl.Name, m.Name, m.Unit,
				ma, mb, ratio(mb, ma), boundText(m), spread(va), spread(vb), verdict(m, ma, mb, spread(va), spread(vb)))
		}
	}
	return tw.Flush()
}

func boundText(m metricSpec) string {
	if m.Bound == 0 {
		return "-"
	}
	return strconv.FormatFloat(m.Bound, 'g', -1, 64)
}

// verdict judges b against the base a: unresolved when either side's
// run-to-run spread is wider than the bound, worse when b's median is
// worse than a's by more than the bound, better when it is better by more
// than both spreads, same otherwise. Metrics without a bound get none.
func verdict(m metricSpec, a, b, spreadA, spreadB float64) string {
	if m.Bound == 0 {
		return "-"
	}
	noise := spreadA
	if spreadB > noise {
		noise = spreadB
	}
	if noise > m.Bound {
		return "unresolved"
	}
	worseBy := ratio(b-a, a)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy > m.Bound:
		return "worse"
	case -worseBy > noise:
		return "better"
	}
	return "same"
}
