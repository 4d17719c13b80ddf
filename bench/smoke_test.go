package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bistream/bench/gen"
)

// smokeSeconds runs every workload at 1/100 of its nominal length.
var smokeSeconds = strconv.FormatFloat(gen.NominalSeconds/100.0, 'g', -1, 64)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the catalogue compiled into the tool must say the
// same thing: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || b.RunSeconds != gen.NominalSeconds {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Command, []string{"sh", "bench/run.sh"}) {
		t.Errorf("command %v", b.Command)
	}
	if len(b.Workloads) != len(gen.Workloads) {
		t.Fatalf("%d workloads declared, %d compiled in", len(b.Workloads), len(gen.Workloads))
	}
	for i, w := range gen.Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s", i, b.Workloads[i], w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d end-to-end, %d/%d per-layer",
			len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := b.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, e, d)
		}
	}
}

var metricLine = regexp.MustCompile(`^  ([a-z][a-z0-9_.]*) +(-?[0-9.]+(?:e[-+]?[0-9]+)?) (\S+)$`)

// section splits the human report into per-workload metric lines.
func sections(t *testing.T, out string) map[string][][]string {
	t.Helper()
	got := map[string][][]string{}
	var cur string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			cur = strings.Fields(line)[1]
			if _, dup := got[cur]; dup {
				t.Errorf("workload %s reported twice", cur)
			}
			got[cur] = nil
			if !strings.HasSuffix(line, " correct") {
				t.Errorf("run not correct: %s", line)
			}
			if !strings.Contains(line, " failed=0 ") {
				t.Errorf("run has failures: %s", line)
			}
		} else if m := metricLine.FindStringSubmatch(line); m != nil && cur != "" {
			got[cur] = append(got[cur], m[1:])
		}
	}
	return got
}

// checkReport asserts that for every workload every declared metric is
// printed exactly once with its unit and a finite value, and nothing
// undeclared is printed.
func checkReport(t *testing.T, out string, defs []metricDef, traced bool) {
	t.Helper()
	got := sections(t, out)
	for _, w := range gen.Workloads {
		lines, ok := got[w.Name]
		if !ok {
			t.Errorf("workload %s not reported", w.Name)
			continue
		}
		seen := map[string]int{}
		for _, l := range lines {
			seen[l[0]]++
		}
		for _, d := range defs {
			if traced && notExecuted(d.Name, w.Wire) {
				if seen[d.Name] != 0 {
					t.Errorf("%s: %s printed though the layer does not run there", w.Name, d.Name)
				}
				continue
			}
			if seen[d.Name] != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, d.Name, seen[d.Name])
			}
			delete(seen, d.Name)
		}
		for name := range seen {
			t.Errorf("%s: undeclared metric %s printed", w.Name, name)
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.Name] = d.Unit
		}
		for _, l := range lines {
			if units[l[0]] != l[2] {
				t.Errorf("%s: %s has unit %q, declared %q", w.Name, l[0], l[2], units[l[0]])
			}
		}
	}
	if len(got) != len(gen.Workloads) {
		t.Errorf("%d workloads reported", len(got))
	}
}

// inBuildDir runs f with the working directory set to a fresh temp
// directory (the tool writes under ./.bench_build) and reports what the
// tool left behind there.
func inBuildDir(t *testing.T, f func()) (left []string) {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	f()
	entries, err := os.ReadDir(filepath.Join(dir, buildDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		left = append(left, e.Name())
	}
	return left
}

// Every workload end to end, then every workload's ledger, at 1/100
// scale through the real command path.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	var e2e, traced bytes.Buffer
	var file File
	left := inBuildDir(t, func() {
		if err := run([]string{"-seconds", smokeSeconds, "-seed", "5", "-out", "e2e.json"}, &e2e); err != nil {
			t.Fatalf("end-to-end run: %v\n%s", err, e2e.String())
		}
		data, err := os.ReadFile("e2e.json")
		if err == nil {
			err = json.Unmarshal(data, &file)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-seconds", smokeSeconds, "-seed", "5", "-trace", "1"}, &traced); err != nil {
			t.Fatalf("traced run: %v\n%s", err, traced.String())
		}
	})
	checkReport(t, e2e.String(), append(endToEnd[:len(endToEnd):len(endToEnd)], failedShare), false)
	checkReport(t, traced.String(), perLayer, true)
	if len(left) != 0 {
		t.Errorf("replica directories left behind: %v", left)
	}

	// The result file carries every run, each with failed_share == 0
	// and finite values, and a summary compare can read.
	if len(file.Runs) != len(gen.Workloads) {
		t.Fatalf("%d runs in the result file", len(file.Runs))
	}
	for _, r := range file.Runs {
		if fs := r.Metrics[failedShare.Name]; fs.Value != 0 || r.Failed != 0 || !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: failed_share %v failed %d correct %v", r.Workload, fs.Value, r.Failed, r.Correct)
		}
		for name, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
				t.Errorf("%s: %s = %v %q", r.Workload, name, m.Value, m.Unit)
			}
		}
		if file.Summary[r.Workload]["throughput_tuples_per_s"].Median <= 0 {
			t.Errorf("%s: no throughput in the summary", r.Workload)
		}
		if rpt := r.Info["results_per_tuple"].(float64); rpt <= 0 {
			t.Errorf("%s joined nothing", r.Workload)
		}
	}

	// Everything the runs started has stopped.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// The driver's line: exactly four keys, every declared metric of the
// run's kind, layers that do not run reported as 0.
func TestDriverLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		inBuildDir(t, func() {
			args := []string{"--workload", "band_inproc", "--seed", "9", "--seconds", smokeSeconds, "--trace", tc.trace}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
		})
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(got) != 4 {
			t.Errorf("driver line has keys %v", got)
		}
		var metrics map[string]Metric
		var correct bool
		var attempted, failed int64
		for key, into := range map[string]any{"metrics": &metrics, "correct": &correct, "attempted": &attempted, "failed": &failed} {
			if err := json.Unmarshal(got[key], into); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
		if !correct || attempted < 1 || failed != 0 {
			t.Errorf("correct %v attempted %d failed %d", correct, attempted, failed)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, %d declared", tc.trace, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: %s = %+v", tc.trace, d.Name, m)
			}
		}
	}
}

// A replica group's listeners and directories are gone after close.
func TestReplicaGroupCleansUp(t *testing.T) {
	tmp := t.TempDir()
	g, err := startReplicaGroup(tmp, replicaNodes, replicaQuorum, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := append([]string{}, g.addrs...)
	for _, n := range g.nodes {
		addrs = append(addrs, n.ReplAddr().String())
	}
	g.close()
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts", a)
		}
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Errorf("%d replica directories left", len(entries))
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := endToEnd[0] // throughput, higher is better
	d.Bound = 0.10
	base := Stat{Median: 100, Q1: 99, Q3: 101}
	for _, tc := range []struct {
		b    Stat
		want string
	}{
		{Stat{Median: 95, Q1: 94, Q3: 96}, "ok"},
		{Stat{Median: 85, Q1: 84, Q3: 86}, "worse"},
		{Stat{Median: 120, Q1: 119, Q3: 121}, "ok"},
		{Stat{Median: 85, Q1: 70, Q3: 100}, "unresolved"},
	} {
		if got := verdictOf(d, base, tc.b); got != tc.want {
			t.Errorf("b=%+v: %s, want %s", tc.b, got, tc.want)
		}
	}
	lower := endToEnd[1] // cpu, lower is better
	lower.Bound = 0.10
	if got := verdictOf(lower, base, Stat{Median: 115, Q1: 114, Q3: 116}); got != "worse" {
		t.Errorf("cpu +15%%: %s", got)
	}
	// quartiles agree with Python's statistics.quantiles(v, n=4).
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}

	dir := t.TempDir()
	write := func(name string, tput float64, runs ...*RunResult) string {
		f := File{Runs: runs, Summary: map[string]map[string]Stat{"equi_inproc": {
			"throughput_tuples_per_s": {Unit: "tuples/s", N: 5, Median: tput, Q1: tput * 0.99, Q3: tput * 1.01},
		}}}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1000), write("same.json", 990), write("slow.json", 700)
	var out bytes.Buffer
	if code := compareMain([]string{a, same}, &out); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s", code, out.String())
	}
	if code := compareMain([]string{a, slow}, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("regression compare exited %d:\n%s", code, out.String())
	}

	// One failing or invalid run among ten leaves every median and
	// quartile where it was; compare has to see it in the raw runs.
	ten := func(bad RunResult) []*RunResult {
		runs := make([]*RunResult, 10)
		for i := range runs {
			runs[i] = &RunResult{Workload: "equi_inproc", Seed: int64(i), Correct: true, Attempted: 1000}
		}
		bad.Workload, bad.Attempted = "equi_inproc", 1000
		runs[7] = &bad
		return runs
	}
	for name, bad := range map[string]RunResult{
		"failed":  {Failed: 3, Invalid: []string{"3 failures"}},
		"invalid": {Invalid: []string{"generator lag"}},
	} {
		out.Reset()
		b := write(name+".json", 1000, ten(bad)...)
		if code := compareMain([]string{a, b}, &out); code != 1 || !strings.Contains(out.String(), bad.Invalid[0]) {
			t.Errorf("one %s run in ten: compare exited %d:\n%s", name, code, out.String())
		}
	}
}
