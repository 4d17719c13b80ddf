// Command bench is the BiStream benchmark: four workloads, six bounded
// end-to-end metrics plus a failure count, and an outside-in per-layer
// ledger. It is the baseline later changes name their claims against;
// see README.md beside this file for the catalogue and how to read it.
//
//	go run ./bench -seed 1 -out base.json        every workload, end to end
//	go run ./bench -trace 1 -seed 1              every workload, per layer
//	go run ./bench -repeat 5 -out a.json         medians and quartiles
//	go run ./bench compare a.json b.json         regression verdicts
//
// With -workload naming exactly one workload it prints, as its last line
// of standard output, the one JSON object the benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"bistream/bench/gen"
)

// buildDir is where everything the benchmark writes goes, inside the
// directory it is run from.
const buildDir = ".bench_build"

// Env records where a result came from.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Generators and Connections are fixed at one each, so neither can
	// exceed nproc; they are recorded because the sizing rule in the
	// README is stated in terms of them.
	Generators  int    `json:"generator_goroutines"`
	Connections int    `json:"broker_connections"`
	Replica     string `json:"replica_group"`
}

func environment() Env {
	return Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Generators: 1, Connections: 1,
		Replica: fmt.Sprintf("%d nodes, quorum %d, heartbeat %v, lease %v, election %v, loopback, no injected delay",
			replicaNodes, replicaQuorum, replicaHeartbeat, replicaLease, replicaElection),
	}
}

// commit names the source revision: the build's VCS stamp when there is
// one, else what git says, else "unknown" (an exported checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// File is what -out writes and compare reads.
type File struct {
	Env     Env          `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Traced  bool         `json:"traced"`
	Runs    []*RunResult `json:"runs"`
	// Summary is, per workload and metric, the median and quartiles
	// over the file's runs.
	Summary map[string]map[string]Stat `json:"summary"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run is the benchmark proper; everything it reports goes to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "comma-separated workload names: run these, in this order (default: all); exactly one ends with the driver's JSON line")
	seed := fs.Int64("seed", 1, "stream seed; repeat r of a run uses seed+r")
	seconds := fs.Float64("seconds", gen.NominalSeconds, "measured time per run (saturation + paced phases)")
	trace := fs.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end run")
	traceOut := fs.String("trace-out", "", "traced run: write the span dump here (one workload)")
	repeat := fs.Int("repeat", 1, "run the workload set this many times and summarize")
	out := fs.String("out", "", "write the result file here")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("-seconds and -repeat must be positive, -trace 0 or 1")
	}

	set := gen.Workloads
	if *workload != "" {
		set = nil
		for _, name := range strings.Split(*workload, ",") {
			w, err := gen.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			set = append(set, w)
		}
	}
	traced := *trace == 1
	if *traceOut != "" && (!traced || len(set) != 1 || *repeat != 1) {
		return fmt.Errorf("-trace-out needs -trace 1, one workload and one repeat")
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	file := &File{Env: environment(), Seed: *seed, Seconds: *seconds, Traced: traced}
	fmt.Fprintf(stdout, "bistream bench: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.Commit)
	fmt.Fprintf(stdout, "replica group (wire workload): %s\n", file.Env.Replica)
	for r := 0; r < *repeat; r++ {
		for _, w := range set {
			opt := runOptions{Seed: *seed + int64(r), Seconds: *seconds, TempDir: tmp}
			var res *RunResult
			if traced {
				res, err = runTraced(w, opt, *traceOut)
			} else {
				res, err = runWorkload(w, opt)
			}
			if err != nil {
				return err
			}
			printRun(stdout, res, traced)
			file.Runs = append(file.Runs, res)
		}
	}
	file.Summary = summarize(file.Runs)
	if *repeat > 1 {
		printSummary(stdout, file.Summary)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
	}
	if *workload != "" && len(set) == 1 {
		// The driver's contract: one JSON object, last line of stdout.
		line, err := driverLine(file.Runs[len(file.Runs)-1], set[0], traced)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

// declared is the metric list a run of the given kind reports.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, res *RunResult, traced bool) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INVALID: " + strings.Join(res.Invalid, "; ")
	}
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g  attempted=%d failed=%d  %s\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, verdict)
	defs := declared(traced)
	if !traced {
		defs = append(defs[:len(defs):len(defs)], failedShare)
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := res.Info[k].(type) {
		case []string:
			fmt.Fprintf(w, "  . %s:\n", k)
			for _, line := range v {
				fmt.Fprintf(w, "  .   %s\n", line)
			}
		default:
			fmt.Fprintf(w, "  . %-30s %v\n", k, v)
		}
	}
}

// driverLine renders a run as the benchmark contract's result object:
// exactly the keys correct, attempted, failed and metrics, the metrics
// being every declared one of the run's kind.
func driverLine(res *RunResult, w *gen.Workload, traced bool) (string, error) {
	metrics := map[string]Metric{}
	for _, d := range declared(traced) {
		m, ok := res.Metrics[d.Name]
		switch {
		case ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0):
			metrics[d.Name] = m
		case !ok && traced && notExecuted(d.Name, w.Wire):
			metrics[d.Name] = metric(0, d.Unit)
		default:
			res.Correct = false
			fmt.Fprintf(os.Stderr, "bench: metric %s missing or not finite\n", d.Name)
			metrics[d.Name] = metric(0, d.Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}
