package experiments

import (
	"fmt"
	"strings"
	"time"

	"bistream/internal/index"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// ChainConfig parameterizes E5, the chained in-memory index experiment
// behind Figure 5: the same insert/probe/expire workload runs against
// chained indexes with a sweep of archive periods P, once as an equi
// join over hash sub-indexes and three times over ordered ones (a band
// join, a theta < join and a theta != join), and against the monolithic
// single-index baseline with tuple-at-a-time eviction.
type ChainConfig struct {
	// Tuples per run (half stored, half probing).
	Tuples int
	// WindowSpan is the sliding window.
	WindowSpan time.Duration
	// StepMS is the event-time gap between consecutive tuples.
	StepMS int64
	// Keys is the join-attribute domain.
	Keys int64
	// Periods are the archive periods to sweep, as fractions of the
	// window (e.g. 1/64 … 1).
	Periods []float64
}

// DefaultChainConfig sweeps P from W/64 to W.
func DefaultChainConfig() ChainConfig {
	return ChainConfig{
		Tuples:     400_000,
		WindowSpan: 10 * time.Second,
		StepMS:     1,
		Keys:       1000,
		Periods:    []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1},
	}
}

// ChainRow is one measured configuration.
type ChainRow struct {
	Label      string  // "equi P=W*0.0625", "theta< P=W*0.25" or "flat (tuple-level)"
	PeriodMS   int64   // 0 for flat
	NsPerOp    float64 // wall time per input tuple
	SubIndexes int     // live sub-indexes at the end (chained only)
	// VisitsPerProbe is the mean number of sub-indexes a probe
	// visited: an exact count, 1 for the flat baseline.
	VisitsPerProbe float64
	// CandidatesPerProbe is the mean number of stored tuples a probe
	// emitted for the predicate to check, stale ones included: exact.
	CandidatesPerProbe float64
	Dropped            int64 // tuples discarded over the run
	FinalLen           int   // live tuples at the end
	// Stale is how many of the FinalLen live tuples are already out of
	// the window of the last probe: whole-sub-index expiry keeps up to
	// about one period of them.
	Stale    int
	MemBytes int64
}

// RunChainSweep executes E5: the period sweep for the equi series, the
// same sweep for the band, theta< and theta!= series, then the flat
// baseline (last row).
func RunChainSweep(cfg ChainConfig) ([]ChainRow, error) {
	if cfg.Tuples <= 0 || len(cfg.Periods) == 0 {
		return nil, fmt.Errorf("experiments: bad chain config")
	}
	win := window.Sliding{Span: cfg.WindowSpan}
	series := []struct {
		name string
		pred predicate.Predicate
	}{
		{"equi", predicate.NewEqui(0, 0)},
		{"band", predicate.NewBand(0, 0, 1)},
		{"theta<", predicate.NewTheta(0, 0, predicate.LT)},
		{"theta!=", predicate.NewTheta(0, 0, predicate.NE)},
	}
	inWindow := chainInWindow(cfg, win)
	var rows []ChainRow
	for _, ser := range series {
		for _, frac := range cfg.Periods {
			periodMS := int64(float64(win.SpanMillis()) * frac)
			if periodMS <= 0 {
				return nil, fmt.Errorf("experiments: period fraction %v too small", frac)
			}
			idx, err := index.NewChained(index.ForPredicate(ser.pred, tuple.R), periodMS, win)
			if err != nil {
				return nil, err
			}
			dur, visits, cands := runChainWorkload(cfg, ser.pred,
				idx.Insert,
				func(ts int64) { idx.Expire(ts) },
				func(plan *predicate.Plan, emit func(*tuple.Tuple) bool) int {
					idx.Probe(plan, emit)
					return idx.NumSubIndexes()
				},
			)
			rows = append(rows, ChainRow{
				Label:              fmt.Sprintf("%s P=W*%.4g", ser.name, frac),
				PeriodMS:           periodMS,
				NsPerOp:            float64(dur.Nanoseconds()) / float64(cfg.Tuples),
				SubIndexes:         idx.NumSubIndexes(),
				VisitsPerProbe:     visits,
				CandidatesPerProbe: cands,
				Dropped:            idx.Dropped(),
				FinalLen:           idx.Len(),
				Stale:              idx.Len() - inWindow,
				MemBytes:           idx.MemBytes(),
			})
		}
	}
	// Baseline: one monolithic hash index, tuple-level eviction. It
	// serves only the equi series: a band probe would scan all of it.
	flat := index.NewFlat(0, win)
	dur, visits, cands := runChainWorkload(cfg, series[0].pred,
		flat.Insert,
		func(ts int64) { flat.Expire(ts) },
		func(plan *predicate.Plan, emit func(*tuple.Tuple) bool) int {
			flat.Probe(*plan, emit)
			return 1
		},
	)
	rows = append(rows, ChainRow{
		Label:              "flat (tuple-level)",
		NsPerOp:            float64(dur.Nanoseconds()) / float64(cfg.Tuples),
		VisitsPerProbe:     visits,
		CandidatesPerProbe: cands,
		Dropped:            flat.Dropped(),
		FinalLen:           flat.Len(),
		Stale:              flat.Len() - inWindow,
		MemBytes:           flat.MemBytes(),
	})
	return rows, nil
}

// runChainWorkload alternates stores and probes over the index under
// test and returns the elapsed wall time and, per probe, the mean
// number of sub-indexes visited (probe returns its count) and of
// candidates emitted.
func runChainWorkload(
	cfg ChainConfig,
	pred predicate.Predicate,
	insert func(*tuple.Tuple),
	expire func(int64),
	probe func(*predicate.Plan, func(*tuple.Tuple) bool) int,
) (dur time.Duration, visitsPerProbe, candsPerProbe float64) {
	visits, cands, probes := 0, 0, 0
	emit := func(*tuple.Tuple) bool { cands++; return true }
	start := time.Now()
	for i := 0; i < cfg.Tuples; i++ {
		ts, key := chainTuple(cfg, i)
		if i%2 == 0 {
			insert(tuple.New(tuple.R, uint64(i), ts, key))
			continue
		}
		probeT := tuple.New(tuple.S, uint64(i), ts, key)
		expire(ts)
		plan := pred.Plan(probeT)
		visits += probe(&plan, emit)
		probes++
	}
	n := float64(max(probes, 1))
	return time.Since(start), float64(visits) / n, float64(cands) / n
}

// chainTuple is input tuple i's timestamp and key: stores at even i,
// probes at odd i.
func chainTuple(cfg ChainConfig, i int) (int64, tuple.Value) {
	return int64(i) * cfg.StepMS, tuple.Int(int64(i) % cfg.Keys)
}

// chainInWindow counts the stored tuples still inside the window of the
// run's last probe: the live size an index with no stale data would end
// at.
func chainInWindow(cfg ChainConfig, win window.Sliding) int {
	last := cfg.Tuples - 1 // probes sit at odd i
	if last%2 == 0 {
		last--
	}
	if last < 1 {
		return 0
	}
	lastTS, _ := chainTuple(cfg, last)
	n := 0
	for i := 0; i < cfg.Tuples; i += 2 {
		if ts, _ := chainTuple(cfg, i); !win.Expired(ts, lastTS) {
			n++
		}
	}
	return n
}

// FormatChainRows renders the E5 table.
func FormatChainRows(rows []ChainRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %10s %10s %10s %10s %10s %10s %10s %10s\n",
		"index", "ns/op", "subidx", "visits", "cands", "dropped", "live", "stale", "MiB")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %10.0f %10d %10.2f %10.1f %10d %10d %10d %10.1f\n",
			r.Label, r.NsPerOp, r.SubIndexes, r.VisitsPerProbe, r.CandidatesPerProbe, r.Dropped, r.FinalLen,
			r.Stale, float64(r.MemBytes)/(1<<20))
	}
	return sb.String()
}
