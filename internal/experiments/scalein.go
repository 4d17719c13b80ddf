package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"bistream/internal/checkpoint"
	"bistream/internal/cluster"
	"bistream/internal/core"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// ScaleInConfig parameterizes the live-migration scale-in experiment:
// a full-history equi-join accumulates state on a large joiner group,
// the HPA decides to shrink, and its OnScale hook drives
// Engine.ScaleJoiners — live state migration. The experiment measures
// the migration pause and proves result completeness: every pre-shrink
// tuple must still join with every post-shrink probe.
type ScaleInConfig struct {
	// Tuples is the per-relation workload before the shrink.
	Tuples int
	// PostTuples is the per-relation probe workload after the shrink.
	PostTuples int
	// Keys is the join-attribute domain.
	Keys int64
	// StartJoiners and EndJoiners are the R group sizes before and
	// after the HPA's shrink verdict.
	StartJoiners, EndJoiners int
	// Routers is the router-tier size.
	Routers int
	// Seed drives the workload.
	Seed int64
}

// DefaultScaleInConfig shrinks 4 -> 2 under a 20k-tuple history.
func DefaultScaleInConfig() ScaleInConfig {
	return ScaleInConfig{
		Tuples:       10_000,
		PostTuples:   2_000,
		Keys:         2_000,
		StartJoiners: 4,
		EndJoiners:   2,
		Routers:      2,
		Seed:         17,
	}
}

// ScaleInResult is the experiment's measurement.
type ScaleInResult struct {
	// MigrationMS is the wall time of the HPA-triggered ScaleJoiners
	// call: drain barrier, in-memory handoff, graft, cut-over.
	MigrationMS float64
	// Migrations and MovedTuples are the engine's migration counters.
	Migrations  int64
	MovedTuples int64
	// Results and Expected compare the delivered result count against
	// the exact reference count; Complete is their equality.
	Results  int64
	Expected int64
	Complete bool
	// ScaleEvents counts HPA rescales observed through OnScale.
	ScaleEvents int
}

// RunScaleIn executes the scale-in experiment.
func RunScaleIn(cfg ScaleInConfig) (*ScaleInResult, error) {
	if cfg.Tuples <= 0 || cfg.StartJoiners <= cfg.EndJoiners || cfg.EndJoiners < 1 {
		return nil, fmt.Errorf("experiments: bad scale-in config")
	}
	var results atomic.Int64
	eng, err := core.New(core.Config{
		Predicate:           predicate.NewEqui(0, 0),
		FullHistory:         true,
		Routers:             cfg.Routers,
		RJoiners:            cfg.StartJoiners,
		SJoiners:            2,
		PunctuationInterval: 2 * time.Millisecond,
		Checkpoint:          checkpoint.NewMemProvider(),
		CheckpointInterval:  25 * time.Millisecond,
		OnResult:            func(tuple.JoinResult) { results.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	defer eng.Stop()

	// Exact reference count, maintained incrementally: each new tuple
	// contributes one pair per opposite-side tuple sharing its key.
	rng := rand.New(rand.NewSource(cfg.Seed))
	rCount := make(map[int64]int64, cfg.Keys)
	sCount := make(map[int64]int64, cfg.Keys)
	var expected int64
	seq := uint64(1)
	ingest := func(n int) error {
		for i := 0; i < n; i++ {
			k := rng.Int63n(cfg.Keys)
			expected += sCount[k]
			rCount[k]++
			if err := eng.Ingest(tuple.New(tuple.R, seq, int64(seq), tuple.Int(k))); err != nil {
				return err
			}
			seq++
			k = rng.Int63n(cfg.Keys)
			expected += rCount[k]
			sCount[k]++
			if err := eng.Ingest(tuple.New(tuple.S, seq, int64(seq), tuple.Int(k))); err != nil {
				return err
			}
			seq++
		}
		return nil
	}
	if err := ingest(cfg.Tuples); err != nil {
		return nil, err
	}
	if err := eng.Quiesce(2 * time.Minute); err != nil {
		return nil, err
	}

	// The simulated control plane: an HPA over the joiner-R deployment,
	// its OnScale hook bound to the engine. Low reported usage drives a
	// shrink verdict once the stabilization window passes.
	res := &ScaleInResult{}
	cl := cluster.New()
	cl.AddStandardNodes(cfg.StartJoiners + 1)
	dep := cl.NewDeployment("biclique-joiner-r", cluster.PodSpec{
		Image:    "eangelog/join-r-processing-service",
		Requests: cluster.ResourceList{MilliCPU: 500, MemBytes: 256 << 20},
	}, cfg.StartJoiners, cluster.PodHooks{
		OnStart: func(*cluster.Pod) (cluster.UsageFunc, func()) {
			return func() cluster.ResourceList {
				return cluster.ResourceList{MilliCPU: 20} // nearly idle
			}, func() {}
		},
	})
	now := time.Unix(0, 0).UTC()
	dep.Reconcile(now)
	hpa, err := cluster.NewHPA("biclique-joiner-r", dep, cfg.EndJoiners, cfg.StartJoiners,
		cluster.Target{Resource: cluster.CPU, AverageUtilization: 50})
	if err != nil {
		return nil, err
	}
	hpa.StabilizationWindow = time.Second
	var migErr error
	hpa.OnScale = func(from, to int) {
		res.ScaleEvents++
		start := time.Now()
		if err := eng.ScaleJoiners(tuple.R, to); err != nil {
			migErr = err
			return
		}
		res.MigrationMS = float64(time.Since(start).Microseconds()) / 1000
	}
	ms := cl.NewMetricsServer()
	for tick := 0; tick < 4 && res.ScaleEvents == 0; tick++ {
		now = now.Add(time.Second)
		ms.Scrape(now)
		hpa.Reconcile(now)
	}
	if migErr != nil {
		return nil, migErr
	}
	if res.ScaleEvents == 0 {
		return nil, fmt.Errorf("experiments: HPA never issued the shrink verdict")
	}
	if got := eng.NumJoiners(tuple.R); got != cfg.EndJoiners {
		return nil, fmt.Errorf("experiments: joiner group at %d after shrink, want %d", got, cfg.EndJoiners)
	}

	// Post-shrink probes must find the migrated history.
	if err := ingest(cfg.PostTuples); err != nil {
		return nil, err
	}
	if err := eng.Quiesce(2 * time.Minute); err != nil {
		return nil, err
	}

	reg := eng.Metrics()
	if v, ok := reg.Value("engine.migrations"); ok {
		res.Migrations = int64(v)
	}
	if v, ok := reg.Value("engine.migrated_tuples"); ok {
		res.MovedTuples = int64(v)
	}
	res.Results = results.Load()
	res.Expected = expected
	res.Complete = res.Results == res.Expected
	return res, nil
}

// FormatScaleIn renders the experiment report.
func FormatScaleIn(res *ScaleInResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scale-in migration (full history)\n")
	fmt.Fprintf(&sb, "  HPA scale events : %d\n", res.ScaleEvents)
	fmt.Fprintf(&sb, "  migrations       : %d (%d tuples moved)\n", res.Migrations, res.MovedTuples)
	fmt.Fprintf(&sb, "  migration pause  : %.1f ms\n", res.MigrationMS)
	fmt.Fprintf(&sb, "  results          : %d / %d expected (complete=%v)\n",
		res.Results, res.Expected, res.Complete)
	return sb.String()
}
