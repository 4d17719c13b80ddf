package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"bistream/internal/core"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/workload"
)

// PunctuationConfig parameterizes E10, the punctuation-interval
// ablation: §3.3 suggests emitting punctuation signals "e.g. every
// 20ms". The interval is the protocol's latency/overhead dial — a
// joiner cannot release a tuple until every router path's punctuation
// covers it, so result latency is bounded below by roughly one
// interval, while shorter intervals cost more signal messages per
// tuple.
type PunctuationConfig struct {
	// Intervals to sweep.
	Intervals []time.Duration
	// Tuples per run.
	Tuples int
	// Rate is the ingest pace in tuples/second (wall clock); latency
	// only means something under a paced load.
	Rate float64
	// Routers is the router-tier size (more routers = more frontiers
	// to wait for).
	Routers int
	// Keys is the join-attribute domain.
	Keys int64
	// WindowSpan is the sliding window.
	WindowSpan time.Duration
	// Seed drives the workload.
	Seed int64
}

// DefaultPunctuationConfig sweeps 1ms-100ms around the text's 20ms.
func DefaultPunctuationConfig() PunctuationConfig {
	return PunctuationConfig{
		Intervals:  []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond},
		Tuples:     4000,
		Rate:       2000,
		Routers:    2,
		Keys:       10_000,
		WindowSpan: time.Minute,
		Seed:       10,
	}
}

// PunctuationRow is one interval's measurement.
type PunctuationRow struct {
	Interval    time.Duration
	MeanLatency time.Duration // mean reorder-buffer residency
	P99Latency  time.Duration
	// SignalShare is the fraction of broker messages that were
	// punctuation signals (the protocol's bandwidth overhead).
	SignalShare float64
	Results     int64
}

// RunPunctuationSweep executes E10.
func RunPunctuationSweep(cfg PunctuationConfig) ([]PunctuationRow, error) {
	if len(cfg.Intervals) == 0 || cfg.Tuples <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("experiments: bad punctuation config")
	}
	var rows []PunctuationRow
	for _, interval := range cfg.Intervals {
		row, err := runPunctuationOnce(cfg, interval)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runPunctuationOnce(cfg PunctuationConfig, interval time.Duration) (PunctuationRow, error) {
	var results atomic.Int64
	eng, err := core.New(core.Config{
		Predicate:           predicate.NewEqui(0, 0),
		Window:              cfg.WindowSpan,
		Routers:             cfg.Routers,
		RJoiners:            2,
		SJoiners:            2,
		PunctuationInterval: interval,
		OnResult:            func(tuple.JoinResult) { results.Add(1) },
	})
	if err != nil {
		return PunctuationRow{}, err
	}
	if err := eng.Start(); err != nil {
		return PunctuationRow{}, err
	}
	defer eng.Stop()

	gen, err := workload.New(workload.Config{
		Profile: workload.RateProfile{{From: 0, TuplesPerSec: cfg.Rate}},
		Keys:    workload.Uniform{N: cfg.Keys},
		Seed:    cfg.Seed,
	})
	if err != nil {
		return PunctuationRow{}, err
	}
	// Paced ingest on the wall clock so buffer residency reflects the
	// punctuation cadence rather than a burst backlog.
	start := time.Now()
	gen.Tick(start)
	sent := 0
	for sent < cfg.Tuples {
		time.Sleep(2 * time.Millisecond)
		for _, t := range gen.Tick(time.Now()) {
			t.TS = time.Since(start).Milliseconds()
			if err := eng.Ingest(t); err != nil {
				return PunctuationRow{}, err
			}
			sent++
			if sent >= cfg.Tuples {
				break
			}
		}
	}
	if err := eng.Quiesce(time.Minute); err != nil {
		return PunctuationRow{}, err
	}
	st := eng.Snapshot()
	var count, sum int64
	var p99 int64
	var tupleMsgs, allMsgs int64
	for _, r := range st.Routers {
		tupleMsgs += r.TuplesRouted + r.JoinFanout
		allMsgs += r.MsgsOut
	}
	for _, js := range append(st.RJoiners, st.SJoiners...) {
		count += js.Latency.Count
		sum += int64(js.Latency.Mean * float64(js.Latency.Count))
		if js.Latency.P99 > p99 {
			p99 = js.Latency.P99
		}
	}
	row := PunctuationRow{Interval: interval, Results: results.Load()}
	if count > 0 {
		row.MeanLatency = time.Duration(sum / count)
	}
	row.P99Latency = time.Duration(p99)
	if allMsgs > 0 {
		row.SignalShare = float64(allMsgs-tupleMsgs) / float64(allMsgs)
	}
	return row, nil
}

// FormatPunctuationRows renders the E10 table.
func FormatPunctuationRows(rows []PunctuationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %14s %14s %14s %10s\n",
		"interval", "mean latency", "p99 latency", "signal share", "results")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12v %14v %14v %13.1f%% %10d\n",
			r.Interval, r.MeanLatency.Round(10*time.Microsecond),
			r.P99Latency.Round(10*time.Microsecond), r.SignalShare*100, r.Results)
	}
	return sb.String()
}
