// Command benchdiff compares two `make bench-json` snapshots and fails
// when the newer one regresses: more than 15% slower ns/op or more than
// 10 extra allocs/op on any benchmark present in both files.
//
//	go run ./tools/benchdiff BENCH_20260926.json BENCH_ci.json
//
// Benchmarks that appear in only one snapshot are reported but never
// fail the diff — adding or retiring a benchmark is not a regression.
// Thresholds can be overridden for stricter or looser gates:
//
//	go run ./tools/benchdiff -max-ns-regression 5 old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type result struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

func load(path string) (map[string]result, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rs []result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]result, len(rs))
	names := make([]string, 0, len(rs))
	for _, r := range rs {
		if _, dup := byName[r.Name]; !dup {
			names = append(names, r.Name)
		}
		byName[r.Name] = r
	}
	return byName, names, nil
}

func main() {
	maxNsPct := flag.Float64("max-ns-regression", 15, "fail when ns/op grows by more than this percentage")
	maxAllocs := flag.Float64("max-allocs-regression", 10, "fail when allocs/op grows by more than this many")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] OLD.json NEW.json")
		os.Exit(2)
	}
	oldBy, _, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newBy, newNames, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	failed := false
	sort.Strings(newNames)
	for _, name := range newNames {
		nr := newBy[name]
		or, ok := oldBy[name]
		if !ok {
			fmt.Printf("%-45s new benchmark (%.1f ns/op)\n", name, nr.Metrics["ns/op"])
			continue
		}
		line := fmt.Sprintf("%-45s", name)
		verdict := "ok"
		if oldNs, newNs := or.Metrics["ns/op"], nr.Metrics["ns/op"]; oldNs > 0 {
			pct := (newNs - oldNs) / oldNs * 100
			line += fmt.Sprintf(" ns/op %9.1f -> %9.1f (%+6.1f%%)", oldNs, newNs, pct)
			if pct > *maxNsPct {
				verdict = fmt.Sprintf("FAIL: ns/op regressed %.1f%% (limit %.0f%%)", pct, *maxNsPct)
				failed = true
			}
		}
		oldAl, haveOld := or.Metrics["allocs/op"]
		newAl, haveNew := nr.Metrics["allocs/op"]
		if haveOld && haveNew {
			line += fmt.Sprintf("  allocs %5.0f -> %5.0f", oldAl, newAl)
			if newAl-oldAl > *maxAllocs {
				verdict = fmt.Sprintf("FAIL: +%.0f allocs/op (limit +%.0f)", newAl-oldAl, *maxAllocs)
				failed = true
			}
		}
		fmt.Printf("%s  %s\n", line, verdict)
	}
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			fmt.Printf("%-45s only in old snapshot\n", name)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: performance regression detected")
		os.Exit(1)
	}
}
