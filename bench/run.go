package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"bistream/bench/gen"
	"bistream/bench/ref"
)

// RunResult is everything one run of one workload produced.
type RunResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Info carries what a reader needs to judge the run but no gate
	// looks at: sample counts, the verifier's tallies, stream hash.
	Info map[string]any `json:"info"`
	// Invalid lists why Correct is false, if it is.
	Invalid []string `json:"invalid,omitempty"`
}

// maxLagShare invalidates a run whose generator ran late: latency is
// taken from due times, so lateness the generator caused itself would be
// billed to the engine. In-process on two cores the generator shares
// its CPUs with the engine and the collector, and its p99 lag sits at
// 1.5-4 ms against a 14-16 ms median latency on every workload; half
// the median leaves that room on a noisy day and still catches a pacer
// that cannot hold its schedule, whose lag grows without bound.
const maxLagShare = 0.5

// A full-length run alternates a saturation round and a slice of the
// paced schedule cycles times, sets up setUps times in all, and reports
// the medians.
const (
	setUps = 5
	cycles = 6
)

// runOptions parameterize one run.
type runOptions struct {
	Seed    int64
	Seconds float64
	// TempDir holds replica data directories; it must exist.
	TempDir string
	// observer, when non-nil, watches the run from outside for the
	// per-layer counters (traced runs only; it costs a little).
	observer *observer
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quantile returns the q-quantile of sorted (nearest-rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sliceQuantiles sorts each slice of samples (nanoseconds) and returns
// each one's q-quantile in milliseconds.
func sliceQuantiles(samples [][]int64, q float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		slices.Sort(s)
		out[i] = float64(quantile(s, q)) / 1e6
	}
	return out
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

// runWorkload performs the phases every workload shares: set-up (with
// warm-up), closed-loop saturation rounds alternating with open-loop
// paced slices, the set-ups repeated for setup_s, verification.
func runWorkload(w *gen.Workload, opt runOptions) (*RunResult, error) {
	res := &RunResult{
		Workload: w.Name, Seed: opt.Seed, Seconds: opt.Seconds,
		Metrics: map[string]Metric{}, Info: map[string]any{},
	}
	warmN := w.WarmupTuples(opt.Seconds)
	satPer, pacedPer := max(w.SatTuples(opt.Seconds)/cycles, 1), max(w.PacedTuples(opt.Seconds)/cycles, 1)
	satN, pacedN := cycles*satPer, cycles*pacedPer
	total := warmN + satN + pacedN
	st, err := gen.New(w.Stream, opt.Seed, total)
	if err != nil {
		return nil, err
	}
	// The oracle runs first: it is independent of the engine, and its
	// pair count sizes the sink so collecting results never reallocates.
	exp := w.Expected(st)

	// Phase 0: set-up. The first engine is the one measured, on a heap
	// no earlier engine has used, so that what the set-ups repeated for
	// setup_s leave behind cannot reach the measurement.
	sinkSize := len(exp) + len(exp)/8 + 1024
	snk := newSink(sinkSize)
	t0 := time.Now()
	h, err := setUp(w, st, warmN, snk, opt.TempDir, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	defer h.close()
	if opt.observer != nil {
		opt.observer.attach(h)
		defer opt.observer.detach()
	}
	var ingestErrs int64
	ingest := func(i int) {
		var err error
		if opt.observer != nil {
			err = opt.observer.timedIngest(st.Tuple(i))
		} else {
			err = h.eng.Ingest(st.Tuple(i))
		}
		if err != nil {
			ingestErrs++
		}
	}

	// Phases 1 and 2, in cycles: a closed-loop saturation round, then a
	// slice of the open-loop paced schedule, each ending quiescent. A
	// round's clock stops when the engine is quiescent, so its rate is
	// sustainable by construction; a slice's schedule is fixed up front
	// and latency runs from each tuple's due time. Every reported figure
	// is the median over the cycles: a disturbance on a shared box lasts
	// seconds, and with each metric's samples spread over the whole run
	// it spoils a minority of them.
	runtime.GC()
	var satWall, ingestWall, pacedWall time.Duration
	var satResults int64
	var tput, cpuUS, allocs []float64
	pacers := make([]*gen.Pacer, cycles)
	pacedBase := make([]int64, cycles)
	for c := 0; c < cycles; c++ {
		from := warmN + c*(satPer+pacedPer)
		to := from + satPer
		if opt.observer != nil {
			opt.observer.recording = true
		}
		resultsBefore := snk.n.Load()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuSeconds(), time.Now()
		for i := from; i < to; i++ {
			ingest(i)
		}
		ingestWall += time.Since(t0)
		if err := h.quiesce(snk); err != nil {
			return nil, fmt.Errorf("%s: saturation: %w", w.Name, err)
		}
		wall, cpu := time.Since(t0), cpuSeconds()-cpu0
		runtime.ReadMemStats(&m1)
		satWall += wall
		satResults += snk.n.Load() - resultsBefore
		tput = append(tput, float64(satPer)/wall.Seconds())
		cpuUS = append(cpuUS, cpu*1e6/float64(satPer))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(satPer))
		if opt.observer != nil {
			opt.observer.recording = false
		}

		pacer := gen.NewPacer(time.Now(), w.PacedRate, pacedPer)
		pacers[c], pacedBase[c] = pacer, int64(pacer.Start.Sub(snk.base))
		_ = pacer.Run(func(i int) error { ingest(to + i); return nil })
		if err := h.quiesce(snk); err != nil {
			return nil, fmt.Errorf("%s: paced: %w", w.Name, err)
		}
		pacedWall += time.Since(pacer.Start)
	}
	if opt.observer != nil {
		opt.observer.saturationDone(satWall, ingestWall, satResults)
		opt.observer.finish(total)
	}
	snap := h.eng.Snapshot()
	h.close()

	// Phase 0 again, for setup_s alone: the median of setUps set-ups. A
	// run shorter than nominal (the smoke test; the observed half of a
	// traced run, which does not report setup_s) keeps to the one it
	// measured, as it shrinks its warm-up.
	for len(setups) < setUps && opt.Seconds >= gen.NominalSeconds {
		t0 := time.Now()
		again, err := setUp(w, st, warmN, newSink(sinkSize), opt.TempDir, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		again.close()
	}

	// Result latency: from the due time of the later-ingested parent
	// (the larger Seq) to the OnResult call, for results whose later
	// parent was paced, grouped by the slice it was due in. The reported
	// percentiles are the medians of the slices' percentiles: a single
	// hiccup lands in one slice instead of deciding the whole run's p99.
	lat := make([][]int64, cycles)
	var all []int64
	for k, p := range snk.pairs {
		later := int(max(p>>32, p&0xffffffff)) - 1 - warmN
		if later < 0 {
			continue
		}
		c, i := later/(satPer+pacedPer), later%(satPer+pacedPer)-satPer
		if i < 0 {
			continue
		}
		d := snk.at[k] - pacedBase[c] - int64(pacers[c].Due(i))
		lat[c] = append(lat[c], d)
		all = append(all, d)
	}
	slices.Sort(all)
	p50s, p99s := sliceQuantiles(lat, 0.50), sliceQuantiles(lat, 0.99)
	fewest := len(all)
	for _, l := range lat {
		fewest = min(fewest, len(l))
	}
	// The generator's lateness, judged like the latencies it would
	// distort: per slice, then the median.
	lags := make([][]int64, cycles)
	var lagMax int64
	for c, p := range pacers {
		lags[c] = slices.Clone(p.Lag)
		lagMax = max(lagMax, slices.Max(p.Lag))
	}
	lagP99 := median(sliceQuantiles(lags, 0.99))

	// Phase 3: verify against the oracle.
	rep := ref.Verify(exp, snk.pairs)

	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	res.Metrics["throughput_tuples_per_s"] = metric(median(tput), "tuples/s")
	res.Metrics["cpu_us_per_tuple"] = metric(median(cpuUS), "us")
	res.Metrics["latency_p50_ms"] = metric(median(p50s), "ms")
	res.Metrics["latency_p99_ms"] = metric(median(p99s), "ms")
	res.Metrics["allocs_per_tuple"] = metric(median(allocs), "count")
	res.Metrics["setup_s"] = metric(median(setups), "s")

	res.Attempted = int64(total) + int64(len(exp))
	res.Failed = ingestErrs + int64(rep.Failed())
	res.Metrics["failed_share"] = metric(float64(res.Failed)/float64(res.Attempted), "ratio")

	res.Metrics["gen.lag_p99_ms"] = metric(lagP99, "ms")
	perTuple := float64(rep.Got) / float64(total)
	res.Info["stream_hash"] = fmt.Sprintf("%016x", st.Hash())
	res.Info["tuples"] = total
	res.Info["saturation_tuples"] = satN
	res.Info["saturation_s"] = satWall.Seconds()
	res.Info["saturation_ingest_s"] = ingestWall.Seconds()
	res.Info["saturation_round_tuples_per_s"] = tput
	res.Info["saturation_results"] = satResults
	res.Info["paced_tuples"] = pacedN
	res.Info["paced_rate"] = w.PacedRate
	res.Info["paced_s"] = pacedWall.Seconds()
	res.Info["latency_samples"] = len(all)
	res.Info["latency_samples_beyond_slice_p99"] = fewest / 100
	res.Info["latency_slice_p99_ms"] = p99s
	res.Info["latency_whole_phase_p99_ms"] = ms(quantile(all, 0.99))
	res.Info["latency_max_ms"] = ms(quantile(all, 1))
	res.Info["gen_lag_p99_ms"] = lagP99
	res.Info["gen_lag_max_ms"] = ms(lagMax)
	res.Info["results"] = rep.Got
	res.Info["results_per_tuple"] = perTuple
	res.Info["results_expected"] = len(exp)
	res.Info["missing"] = rep.Missing
	res.Info["duplicated"] = rep.Duplicated
	res.Info["spurious"] = rep.Spurious
	res.Info["ingest_errors"] = ingestErrs
	res.Info["setups_s"] = setups
	res.Info["engine_results"] = snap.Results
	res.Info["window_tuples_end"] = snap.WindowTuples

	if res.Failed > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d failures (ingest %d, missing %d, duplicated %d, spurious %d)",
			res.Failed, ingestErrs, rep.Missing, rep.Duplicated, rep.Spurious))
	}
	if rep.Got == 0 {
		res.Invalid = append(res.Invalid, "the join emitted no results")
	}
	// The declared range is for a full-length run (shorter ones start
	// with an emptier window).
	if r := w.ResultsPerTuple; opt.Seconds >= gen.NominalSeconds && (perTuple < r[0] || perTuple > r[1]) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%.3f results per tuple, declared %v", perTuple, r))
	}
	// A paced phase of a few thousand tuples lasts a fraction of a
	// second and its lag p99 is one scheduler hiccup; only scaled-down
	// test runs are that short, and they are not judged on it.
	if p50 := res.Metrics["latency_p50_ms"].Value; pacedN >= 5000 && lagP99 > maxLagShare*p50 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator lag p99 %.3f ms exceeds %.0f%% of latency p50 %.3f ms", lagP99, maxLagShare*100, p50))
	}
	res.Correct = len(res.Invalid) == 0
	return res, nil
}
