package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSummaryMatchesBench recomputes the summary of result files that
// `go run ./bench -repeat N` wrote (an odd and an even N) from their
// runs and requires bench's own block back, metric for metric: this
// tool's median and quartiles are a second copy of bench's, and
// `bench compare` judges the merged files by them.
//
// Regenerate the fixtures after a change to bench's result file with
// go run ./bench -workload equi_inproc -repeat 5 -seconds 1 -out tools/benchpairs/testdata/repeat5.json
// (and -repeat 4 for repeat4.json).
func TestSummaryMatchesBench(t *testing.T) {
	for _, path := range []string{"testdata/repeat5.json", "testdata/repeat4.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f file
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		values, units := map[string]map[string][]float64{}, map[string]string{}
		for _, raw := range f.Runs {
			var r run
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], m.Value)
				units[name] = m.Unit
			}
		}
		if len(values) == 0 || len(values) != len(f.Summary) {
			t.Fatalf("%s: %d workloads in runs, %d in summary", path, len(values), len(f.Summary))
		}
		for wl, want := range f.Summary {
			got := summarize(values[wl], units)
			if len(got) != len(want) {
				t.Errorf("%s %s: %d metrics summarized, bench wrote %d", path, wl, len(got), len(want))
			}
			for name, w := range want {
				if g := got[name]; g != w {
					t.Errorf("%s %s %s: summarize = %+v, bench wrote %+v", path, wl, name, g, w)
				}
			}
		}
	}
}
