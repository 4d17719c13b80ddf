package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"bistream/bench/gen"
)

// Stat summarizes one metric of one workload over a file's runs.
type Stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Spread is the distance between the quartiles as a share of the
// median — the run-to-run noise a difference has to stand clear of.
func (s Stat) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so spreads
// computed here and by the benchmark driver agree.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summarize folds runs into per-workload, per-metric statistics.
func summarize(runs []*RunResult) map[string]map[string]Stat {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]Stat{}
	for wl, metrics := range values {
		out[wl] = map[string]Stat{}
		for name, v := range metrics {
			q1, q3 := quartiles(v)
			out[wl][name] = Stat{Unit: units[name], N: len(v), Median: median(v), Q1: q1, Q3: q3}
		}
	}
	return out
}

// printSummary prints median and quartiles of every end-to-end metric.
func printSummary(w io.Writer, sum map[string]map[string]Stat) {
	fmt.Fprintf(w, "\n%-20s %-26s %3s %14s %14s %14s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "spread")
	for _, wl := range gen.Workloads {
		for _, d := range endToEnd {
			if st, ok := sum[wl.Name][d.Name]; ok {
				fmt.Fprintf(w, "%-20s %-26s %3d %14.4f %14.4f %14.4f %7.2f%%\n",
					wl.Name, d.Name, st.N, st.Median, st.Q1, st.Q3, 100*st.Spread())
			}
		}
	}
}

// compareMain implements `bench compare <a.json> <b.json>`: per
// workload and end-to-end metric it prints both medians, b's relative
// difference with a as the base, the bound, and a verdict; and every run
// of either file that failed an operation or was invalid, because the
// medians hide one such run among ten. It returns the exit code: 1 when
// any metric is worse or any run failed, 2 on usage errors.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.json> <b.json>")
		return 2
	}
	var files [2]File
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := files[0].Summary, files[1].Summary
	fmt.Fprintf(w, "base a = %s (commit %s)\n     b = %s (commit %s)\n", args[0], files[0].Env.Commit, args[1], files[1].Env.Commit)
	fmt.Fprintf(w, "%-20s %-26s %14s %14s %22s %6s  %s\n", "workload", "metric", "a median", "b median", "b vs a (base a)", "bound", "verdict")
	worse := 0
	for _, wl := range gen.Workloads {
		for _, d := range endToEnd {
			sa, okA := a[wl.Name][d.Name]
			sb, okB := b[wl.Name][d.Name]
			if !okA || !okB {
				continue
			}
			verdict := verdictOf(d, sa, sb)
			if verdict == "worse" {
				worse++
			}
			diff := (sb.Median - sa.Median) / sa.Median
			fmt.Fprintf(w, "%-20s %-26s %14.4f %14.4f %+9.2f%% of %-9.4g %5.0f%%  %s\n",
				wl.Name, d.Name, sa.Median, sb.Median, 100*diff, sa.Median, 100*d.Bound, verdict)
		}
		for i, f := range files {
			for _, r := range f.Runs {
				if r.Workload != wl.Name || (r.Failed == 0 && r.Correct) {
					continue
				}
				worse++
				fmt.Fprintf(w, "%-20s %-26s %s seed %d: failed %d of %d %v  worse (must be 0 and valid)\n",
					wl.Name, failedShare.Name, "ab"[i:i+1], r.Seed, r.Failed, r.Attempted, r.Invalid)
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) or run(s) worse\n", worse)
		return 1
	}
	return 0
}

// verdictOf judges b against a for one metric: unresolved when either
// side's own spread is wider than the bound (the runs cannot tell),
// worse when b's median is worse than a's by more than the bound.
func verdictOf(d metricDef, a, b Stat) string {
	if max(a.Spread(), b.Spread()) > d.Bound {
		return "unresolved"
	}
	by := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		by = -by
	}
	if by > d.Bound {
		return "worse"
	}
	return "ok"
}
