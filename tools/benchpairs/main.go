// Command benchpairs runs the paired measurement a performance claim
// rests on (choosing-metrics §8): two builds of ./bench — the base
// commit's and the change's — run the same workloads on the same seeds
// in alternating order, one pair per seed, and each side's runs are
// merged into one result file `go run ./bench compare` reads.
//
//	go run ./tools/benchpairs -base base-bench -base-dir base-checkout \
//	    -change change-bench -workloads equi_inproc -pairs 10 -out pairs
//	go run ./bench compare pairs/base.json pairs/change.json
//
// `make bench-compare BASE=<ref>` builds both binaries and does exactly
// that. Beside the two files it prints, per workload and metric, how
// many pairs the change won, both medians and the base's quartile
// distance: a gain is claimed only when the change wins at least nine
// tenths of the pairs and the medians lie further apart than the base's
// own quartiles. bench is a main package, so the merged files' summary
// block is computed here with bench's median and (Python-exclusive)
// quartile definitions; main_test.go checks it against files bench
// wrote, so the two cannot drift apart unnoticed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// file mirrors the part of bench's result file this tool touches; runs
// are carried through verbatim.
type file struct {
	Env     json.RawMessage            `json:"env"`
	Seed    int64                      `json:"seed"`
	Seconds float64                    `json:"seconds"`
	Traced  bool                       `json:"traced"`
	Runs    []json.RawMessage          `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

type run struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Failed   int64  `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// quartiles is Python's statistics.quantiles(v, n=4), as in bench.
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

// side is one build under measurement.
type side struct {
	name, bin, dir string
	merged         file
	values         map[string]map[string][]float64 // workload → metric → value per pair
	units          map[string]string
}

// measure runs the side's binary once and folds the run into the side.
func (s *side) measure(workload string, seed int64, seconds float64, scratch string) error {
	out, err := filepath.Abs(filepath.Join(scratch, s.name+"-run.json"))
	if err != nil {
		return err
	}
	bin, err := filepath.Abs(s.bin)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-out", out)
	cmd.Dir = s.dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s seed %d: %v\n%s", s.name, workload, seed, err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", out, err)
	}
	if len(f.Runs) != 1 {
		return fmt.Errorf("%s: %d runs in one invocation", out, len(f.Runs))
	}
	if s.merged.Env == nil {
		s.merged.Env, s.merged.Seed, s.merged.Seconds = f.Env, f.Seed, f.Seconds
	}
	s.merged.Runs = append(s.merged.Runs, f.Runs[0])
	var r run
	if err := json.Unmarshal(f.Runs[0], &r); err != nil {
		return err
	}
	if !r.Correct || r.Failed != 0 {
		fmt.Printf("  !! %s %s seed %d: correct=%v failed=%d\n", s.name, workload, seed, r.Correct, r.Failed)
	}
	if s.values[workload] == nil {
		s.values[workload] = map[string][]float64{}
	}
	for name, m := range r.Metrics {
		s.values[workload][name] = append(s.values[workload][name], m.Value)
		s.units[name] = m.Unit
	}
	return nil
}

// summarize is one workload's block of a result file's summary: per
// metric the median and quartiles over the runs' values. `bench compare`
// reads the block instead of recomputing it, so a merged file has to
// carry the one bench itself would have written over the same runs;
// TestSummaryMatchesBench holds the two together on files bench wrote.
func summarize(values map[string][]float64, units map[string]string) map[string]stat {
	sum := map[string]stat{}
	for name, v := range values {
		q1, q3 := quartiles(v)
		sum[name] = stat{Unit: units[name], N: len(v), Median: median(v), Q1: q1, Q3: q3}
	}
	return sum
}

// write stores the merged file with its summary.
func (s *side) write(dir string) error {
	s.merged.Summary = map[string]map[string]stat{}
	for wl, values := range s.values {
		s.merged.Summary[wl] = summarize(values, s.units)
	}
	data, err := json.MarshalIndent(s.merged, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, s.name+".json"), append(data, '\n'), 0o644)
}

// lowerIsBetter names the end-to-end metrics whose smaller value wins;
// everything else (throughput) wins by being larger.
func lowerIsBetter(metric string) bool { return metric != "throughput_tuples_per_s" }

func main() {
	baseBin := flag.String("base", "", "bench binary built from the base commit")
	baseDir := flag.String("base-dir", ".", "directory the base binary runs in (its checkout)")
	changeBin := flag.String("change", "", "bench binary built from the change")
	workloads := flag.String("workloads", "equi_inproc", "comma-separated workload names")
	pairs := flag.Int("pairs", 10, "pairs per workload; pair i runs both sides on seed seed+i")
	seed := flag.Int64("seed", 1, "first seed")
	seconds := flag.Float64("seconds", 13, "measured seconds per run (the benchmark's run length)")
	outDir := flag.String("out", ".bench_build/pairs", "where base.json and change.json go")
	flag.Parse()
	if *baseBin == "" || *changeBin == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -base BIN -change BIN [-base-dir DIR] [-workloads a,b] [-pairs N] [-seed N] [-out DIR]")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
	newSide := func(name, bin, dir string) *side {
		return &side{name: name, bin: bin, dir: dir, values: map[string]map[string][]float64{}, units: map[string]string{}}
	}
	base, change := newSide("base", *baseBin, *baseDir), newSide("change", *changeBin, ".")
	names := strings.Split(*workloads, ",")
	for _, wl := range names {
		for i := 0; i < *pairs; i++ {
			order := []*side{base, change}
			if i%2 == 1 {
				order = []*side{change, base} // alternate which side runs first
			}
			for _, s := range order {
				if err := s.measure(wl, *seed+int64(i), *seconds, *outDir); err != nil {
					fmt.Fprintln(os.Stderr, "benchpairs:", err)
					os.Exit(1)
				}
			}
			fmt.Printf("%s pair %d/%d (seed %d, %s first) done\n", wl, i+1, *pairs, *seed+int64(i), order[0].name)
		}
	}
	for _, s := range []*side{base, change} {
		if err := s.write(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchpairs:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("\n%-20s %-26s %9s %14s %14s %9s %14s  %s\n",
		"workload", "metric", "wins", "base median", "change median", "change", "base q3-q1", "gain by the pair rule")
	for _, wl := range names {
		metrics := make([]string, 0, len(base.values[wl]))
		for name := range base.values[wl] {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			b, c := base.values[wl][name], change.values[wl][name]
			wins, decided := 0, 0
			for i := range b {
				if b[i] == c[i] {
					continue // ties count for neither
				}
				decided++
				if (c[i] < b[i]) == lowerIsBetter(name) {
					wins++
				}
			}
			q1, q3 := quartiles(b)
			mb, mc := median(b), median(c)
			gap := mc - mb
			if lowerIsBetter(name) {
				gap = -gap
			}
			gain := "no"
			if 10*wins >= 9*len(b) && gap > q3-q1 {
				gain = "yes"
			}
			change := "      n/a"
			if mb != 0 {
				change = fmt.Sprintf("%+8.1f%%", 100*(mc-mb)/mb)
			}
			fmt.Printf("%-20s %-26s %4d/%-4d %14.4f %14.4f %s %14.4f  %s\n",
				wl, name, wins, decided, mb, mc, change, q3-q1, gain)
		}
	}
	fmt.Printf("\nwrote %s and %s\n", filepath.Join(*outDir, "base.json"), filepath.Join(*outDir, "change.json"))
}
