// Command bistream is the all-in-one CLI: it runs a self-contained
// join engine, prints the deployment status tables, and regenerates
// every experiment of the reproduced evaluation.
//
// Usage:
//
//	bistream run [-predicate 'equi(0,0)'] [-rate 300] [-duration 10s] ...
//	bistream status
//	bistream exp {fig20|fig21|models|ordering|chain|routing|scaleout|scalein|heap|brokerfail|joinerscale|skewdrift|all}
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"bistream/internal/core"
	"bistream/internal/experiments"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bistream: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "status":
		cmdStatus()
	case "exp":
		cmdExp(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  bistream run    [flags]   run a self-contained engine on a synthetic workload
  bistream status           print the Figure 14/16/17/18/19 deployment tables
  bistream exp    <name>    regenerate an experiment:
                            fig20 fig21 models ordering chain routing punctuation scaleout scalein heap brokerfail joinerscale skewdrift all
`)
	os.Exit(2)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		predSpec    = fs.String("predicate", "equi(0,0)", "join predicate")
		rate        = fs.Float64("rate", 300, "combined tuples/second")
		duration    = fs.Duration("duration", 10*time.Second, "run length")
		winSpan     = fs.Duration("window", time.Minute, "sliding window span")
		routers     = fs.Int("routers", 2, "router instances")
		rJoiners    = fs.Int("r-joiners", 2, "R joiner group size")
		sJoiners    = fs.Int("s-joiners", 2, "S joiner group size")
		keys        = fs.Int64("keys", 10_000, "join-attribute domain")
		zipf        = fs.Float64("zipf", 0, "zipf skew (>1 enables)")
		seed        = fs.Int64("seed", 1, "rng seed")
		metricsAddr = fs.String("metrics", "", "observability HTTP address (/metrics, /debug/pprof; empty to disable)")
	)
	fs.Parse(args)
	pred, err := predicate.Parse(*predSpec)
	if err != nil {
		log.Fatal(err)
	}
	// Each tuple carries its ingest wall time as a trailing attribute so
	// the sink can report true end-to-end latency (ingest → result).
	// results is atomic: the sink goroutine increments it while the main
	// goroutine reads it after Quiesce.
	var results atomic.Int64
	latency := metrics.NewHistogram()
	eng, err := core.New(core.Config{
		Predicate:           pred,
		Window:              *winSpan,
		Routers:             *routers,
		RJoiners:            *rJoiners,
		SJoiners:            *sJoiners,
		PunctuationInterval: 5 * time.Millisecond,
		MetricsAddr:         *metricsAddr,
		OnResult: func(jr tuple.JoinResult) {
			results.Add(1)
			newer := jr.Left.Value(len(jr.Left.Values) - 1).AsInt()
			if r := jr.Right.Value(len(jr.Right.Values) - 1).AsInt(); r > newer {
				newer = r
			}
			if newer > 0 {
				latency.Observe(time.Now().UnixNano() - newer)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	if addr := eng.MetricsAddr(); addr != "" {
		log.Printf("metrics on http://%s/metrics", addr)
	}

	var keyDist workload.KeyDist = workload.Uniform{N: *keys}
	if *zipf > 1 {
		z, err := workload.NewZipf(rand.New(rand.NewSource(*seed)), *keys, *zipf)
		if err != nil {
			log.Fatal(err)
		}
		keyDist = z
	}
	gen, err := workload.New(workload.Config{
		Profile: workload.RateProfile{{From: 0, TuplesPerSec: *rate}},
		Keys:    keyDist,
		Seed:    *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("running %v: %v, window %v, %d routers, %d+%d joiners",
		*duration, pred, *winSpan, *routers, *rJoiners, *sJoiners)
	start := time.Now()
	gen.Tick(start)
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for now := range ticker.C {
		for _, t := range gen.Tick(now) {
			t.Values = append(t.Values, tuple.Int(time.Now().UnixNano()))
			if err := eng.Ingest(t); err != nil {
				log.Fatal(err)
			}
		}
		if now.Sub(start) >= *duration {
			break
		}
	}
	if err := eng.Quiesce(time.Minute); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	st := eng.Snapshot()
	log.Printf("done in %v: %d tuples in, %d results, %d live window tuples (%.1f MiB)",
		elapsed.Round(time.Millisecond), st.TuplesIn, results.Load(),
		st.WindowTuples, float64(st.WindowBytes)/(1<<20))
	if snap := latency.Snapshot(); snap.Count > 0 {
		log.Printf("end-to-end latency: p50=%v p95=%v p99=%v max=%v",
			time.Duration(snap.P50).Round(10*time.Microsecond),
			time.Duration(snap.P95).Round(10*time.Microsecond),
			time.Duration(snap.P99).Round(10*time.Microsecond),
			time.Duration(snap.Max).Round(10*time.Microsecond))
	}
	for i, js := range st.RJoiners {
		log.Printf("  joiner R/%d: stored=%d probed=%d results=%d expired=%d",
			i, js.Stored, js.Probed, js.Results, js.Expired)
	}
	for i, js := range st.SJoiners {
		log.Printf("  joiner S/%d: stored=%d probed=%d results=%d expired=%d",
			i, js.Stored, js.Probed, js.Results, js.Expired)
	}
}

func cmdStatus() {
	out, err := experiments.RunStatus()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}

func cmdExp(args []string) {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	csvDir := fs.String("csv", "", "also write each autoscaling run's time series to <dir>/<name>.csv")
	fs.Parse(args)
	names := fs.Args()
	if len(names) < 1 {
		usage()
	}
	if names[0] == "all" {
		names = []string{"models", "ordering", "chain", "routing", "punctuation", "scaleout", "scalein", "joinerscale", "skewdrift", "fig20", "fig21", "heap", "brokerfail"}
	}
	for _, name := range names {
		if err := runExperiment(name, *csvDir); err != nil {
			log.Fatal(err)
		}
	}
}

// writeCSV exports an autoscaling run's series for external plotting.
func writeCSV(dir, name string, res *experiments.AutoscaleResult) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := dir + "/" + name + ".csv"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Recorder.WriteCSV(f, "rate", "cpu_pct", "mem_mb", "joiner_r_pods", "joiner_s_pods"); err != nil {
		return err
	}
	fmt.Printf("(series written to %s)\n", path)
	return nil
}

func runExperiment(name, csvDir string) error {
	start := time.Now()
	switch name {
	case "fig20":
		fmt.Println("=== E1 / Figure 20: dynamic scaling on CPU utilization ===")
		res, err := experiments.RunFig20()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAutoscaleResult(res, experiments.Fig20Config()))
		if err := writeCSV(csvDir, name, res); err != nil {
			return err
		}
	case "fig21":
		fmt.Println("=== E2 / Figure 21: dynamic scaling on memory load ===")
		res, err := experiments.RunFig21()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAutoscaleResult(res, experiments.Fig21Config()))
		if err := writeCSV(csvDir, name, res); err != nil {
			return err
		}
	case "models":
		fmt.Println("=== E3 / §2.4.1: join-biclique vs join-matrix ===")
		rows, err := experiments.RunModelComparison(experiments.DefaultModelComparisonConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatModelRows(rows))
	case "ordering":
		fmt.Println("=== E4 / Figure 8: tuple ordering protocol ===")
		with, without, err := experiments.RunOrdering(experiments.DefaultOrderingConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatOrdering(with, without))
	case "chain":
		fmt.Println("=== E5 / Figure 5: chained in-memory index, archive period sweep ===")
		rows, err := experiments.RunChainSweep(experiments.DefaultChainConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatChainRows(rows))
	case "routing":
		fmt.Println("=== E6 / §3.2: routing strategies under uniform and skewed keys ===")
		rows, err := experiments.RunRoutingStrategies(experiments.DefaultRoutingConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRoutingRows(rows))
	case "punctuation":
		fmt.Println("=== E10 / §3.3: punctuation interval vs protocol latency ===")
		rows, err := experiments.RunPunctuationSweep(experiments.DefaultPunctuationConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatPunctuationRows(rows))
	case "scaleout":
		fmt.Println("=== E8: throughput vs joiner count ===")
		rows, err := experiments.RunScaleOut(experiments.DefaultScaleOutConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScaleOutRows(rows))
	case "heap":
		fmt.Println("=== E9 / §5.2: JVM heap footprint policy ablation ===")
		rows, err := experiments.RunHeapAblation(experiments.Fig21Config())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatHeapAblation(rows))
	case "scalein":
		fmt.Println("=== E11 / §3.4: live state migration on HPA scale-in ===")
		res, err := experiments.RunScaleIn(experiments.DefaultScaleInConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScaleIn(res))
	case "joinerscale":
		fmt.Println("=== E13: core-sharded joiner hot path — throughput vs shards ===")
		rows, err := experiments.RunJoinerScale(experiments.DefaultJoinerScaleConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatJoinerScaleRows(rows))
	case "skewdrift":
		fmt.Println("=== E14: drifting skew — static hash vs ContRand vs adaptive key migration ===")
		rows, err := experiments.RunSkewDrift(experiments.DefaultSkewDriftConfig())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSkewDriftRows(rows))
	case "brokerfail":
		fmt.Println("=== E12: replicated broker log — quorum cost and leader failover ===")
		cfg := experiments.DefaultBrokerFailConfig()
		res, err := experiments.RunBrokerFail(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatBrokerFail(res, cfg))
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}
