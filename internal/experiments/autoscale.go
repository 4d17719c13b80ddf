package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"bistream/internal/cluster"
	"bistream/internal/core"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/vclock"
	"bistream/internal/workload"
)

// AutoscaleConfig parameterizes the dynamic-scaling experiments of
// Figures 20 and 21: a real join engine processes the stepped input
// stream while simulated joiner pods expose their genuine CPU/memory
// load to a Horizontal Pod Autoscaler, whose replica decisions feed
// back into the engine's joiner groups.
type AutoscaleConfig struct {
	// Duration is the experiment length in virtual time (60 minutes in
	// the text).
	Duration time.Duration
	// Profile is the input-rate schedule.
	Profile workload.RateProfile
	// WindowSpan is the sliding window (10 minutes in the text).
	WindowSpan time.Duration
	// Target is the HPA metric target (80% CPU for Fig. 20, 520 MB
	// memory for Fig. 21).
	Target cluster.Target
	// MinPods/MaxPods bound each joiner deployment (1 and 3).
	MinPods, MaxPods int
	// Keys is the join-attribute domain (large → low selectivity, the
	// "single equi-join query" of §5.2).
	Keys int64
	// PayloadBytes pads tuples so window memory is lifelike.
	PayloadBytes int
	// PodCPURequestMilli is each joiner pod's CPU request.
	PodCPURequestMilli int64
	// PodMemRequest is each joiner pod's memory request.
	PodMemRequest int64
	// CPUMilliPerWork converts a joiner's work rate (work units/s) into
	// simulated millicores. Calibrated so 300 tuples/s on one joiner
	// shows ≈145% utilization of a 200m request, matching §5.2.
	CPUMilliPerWork float64
	// HeapPolicy models the pods' JVM footprint behaviour (memory
	// experiments); zero value means the tuned policy of §5.2.
	HeapPolicy cluster.HeapPolicy
	// TickPeriod is the virtual driver step (1s).
	TickPeriod time.Duration
	// ScrapePeriod is the metrics/HPA control period (30s).
	ScrapePeriod time.Duration
	// StabilizationWindow delays scale-down decisions.
	StabilizationWindow time.Duration
	// Nodes is the simulated cluster size (8 in the text).
	Nodes int
	// Seed makes the workload reproducible.
	Seed int64
}

// Fig20Config returns the CPU-autoscaling configuration of Figure 20.
func Fig20Config() AutoscaleConfig {
	return AutoscaleConfig{
		Duration:            60 * time.Minute,
		Profile:             workload.Fig20Profile(),
		WindowSpan:          10 * time.Minute,
		Target:              cluster.Target{Resource: cluster.CPU, AverageUtilization: 80},
		MinPods:             1,
		MaxPods:             3,
		Keys:                100_000,
		PayloadBytes:        64,
		PodCPURequestMilli:  200,
		PodMemRequest:       926 << 20,
		CPUMilliPerWork:     0.65,
		HeapPolicy:          cluster.TunedHeapPolicy(),
		TickPeriod:          time.Second,
		ScrapePeriod:        30 * time.Second,
		StabilizationWindow: 3 * time.Minute,
		Nodes:               8,
		Seed:                20,
	}
}

// Fig21Config returns the memory-autoscaling configuration of
// Figure 21: the HPA watches the pods' mapped JVM heap against a raw
// 520 MB target.
func Fig21Config() AutoscaleConfig {
	cfg := Fig20Config()
	cfg.Profile = workload.Fig21Profile()
	cfg.Target = cluster.Target{Resource: cluster.Memory, AverageValue: 520 << 20}
	// ≈445 MB live set per joiner at 400 tuples/s → ≈580 MB mapped heap,
	// crossing the 520 MB target; at 300 tuples/s the mapped heap
	// plateaus near 435 MB, bounded by window discarding.
	cfg.PayloadBytes = 3600
	cfg.Seed = 21
	return cfg
}

func (c *AutoscaleConfig) applyDefaults() error {
	if c.Duration <= 0 || c.WindowSpan <= 0 {
		return fmt.Errorf("experiments: duration and window must be positive")
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.MinPods <= 0 {
		c.MinPods = 1
	}
	if c.MaxPods < c.MinPods {
		c.MaxPods = c.MinPods
	}
	if c.Keys <= 0 {
		c.Keys = 100_000
	}
	if c.PodCPURequestMilli <= 0 {
		c.PodCPURequestMilli = 200
	}
	if c.PodMemRequest <= 0 {
		c.PodMemRequest = 926 << 20
	}
	if c.CPUMilliPerWork <= 0 {
		c.CPUMilliPerWork = 0.65
	}
	if c.HeapPolicy == (cluster.HeapPolicy{}) {
		c.HeapPolicy = cluster.TunedHeapPolicy()
	}
	if c.TickPeriod <= 0 {
		c.TickPeriod = time.Second
	}
	if c.ScrapePeriod <= 0 {
		c.ScrapePeriod = 30 * time.Second
	}
	if c.StabilizationWindow <= 0 {
		c.StabilizationWindow = 3 * time.Minute
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	return nil
}

// AutoscaleResult captures the run's time series and summary.
type AutoscaleResult struct {
	// Recorder holds the plotted series: "rate" (tuples/s),
	// "joiner_r_pods", "joiner_s_pods", "cpu_pct" (mean R-joiner
	// utilization %), "mem_mb" (mean R-joiner mapped heap MiB).
	Recorder *metrics.Recorder
	// ReplicaPath is the sequence of distinct joiner-r replica counts.
	ReplicaPath []int
	// MaxReplicas is the peak joiner-r replica count.
	MaxReplicas int
	// FinalReplicas is the count at the end of the run.
	FinalReplicas int
	// PeakMemMB / FinalMemMB summarize the memory series.
	PeakMemMB, FinalMemMB float64
	// Results is the number of join results produced.
	Results int64
	// TuplesIn is the number of tuples ingested.
	TuplesIn int64
}

// RunFig20 executes the CPU-based dynamic scaling experiment.
func RunFig20() (*AutoscaleResult, error) { return RunAutoscale(Fig20Config()) }

// RunFig21 executes the memory-based dynamic scaling experiment.
func RunFig21() (*AutoscaleResult, error) { return RunAutoscale(Fig21Config()) }

// RunAutoscale drives the coupled engine+cluster simulation.
func RunAutoscale(cfg AutoscaleConfig) (*AutoscaleResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	sim := vclock.NewSim(time.Time{})
	var resultCount atomic.Int64
	eng, err := core.New(core.Config{
		Predicate:           predicate.NewEqui(0, 0),
		Window:              cfg.WindowSpan,
		Routers:             2,
		RJoiners:            cfg.MinPods,
		SJoiners:            cfg.MinPods,
		PunctuationInterval: 2 * time.Millisecond,
		Clock:               sim,
		OnResult:            func(tuple.JoinResult) { resultCount.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	defer eng.Stop()

	cl := cluster.New()
	cl.AddStandardNodes(cfg.Nodes)
	ms := cl.NewMetricsServer()

	podSpec := func(name string) cluster.PodSpec {
		return cluster.PodSpec{
			Image:    "eangelog/" + name + "-service",
			Requests: cluster.ResourceList{MilliCPU: cfg.PodCPURequestMilli, MemBytes: cfg.PodMemRequest},
			Labels:   map[string]string{"run": "biclique-" + name},
		}
	}
	// Fixed-size tiers for completeness of the deployment picture.
	rabbit := cl.NewDeployment("biclique-rabbitmq", podSpec("rabbitmq"), 1, cluster.PodHooks{})
	rabbit.Reconcile(sim.Now())
	routerDep := cl.NewDeployment("biclique-router", podSpec("router"), 2, cluster.PodHooks{})
	routerDep.Reconcile(sim.Now())

	// Joiner deployments: each pod's usage comes from the live stats of
	// the engine member it is bound to (same index, LIFO on both sides).
	bind := newPodBinder(eng, sim, cfg)
	joinerR := cl.NewDeployment("biclique-joiner-r", podSpec("join-r-processing"), cfg.MinPods, bind.hooks(tuple.R))
	joinerS := cl.NewDeployment("biclique-joiner-s", podSpec("join-s-processing"), cfg.MinPods, bind.hooks(tuple.S))
	joinerR.Reconcile(sim.Now())
	joinerS.Reconcile(sim.Now())

	hpaR, err := cluster.NewHPA("biclique-joiner-r", joinerR, cfg.MinPods, cfg.MaxPods, cfg.Target)
	if err != nil {
		return nil, err
	}
	hpaS, err := cluster.NewHPA("biclique-joiner-s", joinerS, cfg.MinPods, cfg.MaxPods, cfg.Target)
	if err != nil {
		return nil, err
	}
	hpaR.StabilizationWindow = cfg.StabilizationWindow
	hpaS.StabilizationWindow = cfg.StabilizationWindow

	gen, err := workload.New(workload.Config{
		Profile:      cfg.Profile,
		Keys:         workload.Uniform{N: cfg.Keys},
		PayloadBytes: cfg.PayloadBytes,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	rec := metrics.NewRecorder()
	res := &AutoscaleResult{Recorder: rec}
	record := func(now time.Time) {
		rec.Record("hpa_ratio", now, hpaR.CurrentRatio())
		elapsed := now.Sub(time.Unix(0, 0).UTC())
		rec.Record("rate", now, cfg.Profile.At(elapsed))
		rPods := joinerR.Pods()
		rec.Record("joiner_r_pods", now, float64(len(rPods)))
		rec.Record("joiner_s_pods", now, float64(len(joinerS.Pods())))
		var cpuSum, memSum float64
		n := 0
		for _, p := range rPods {
			u := p.Usage()
			cpuSum += float64(u.MilliCPU) / float64(cfg.PodCPURequestMilli) * 100
			memSum += float64(u.MemBytes) / (1 << 20)
			n++
		}
		if n > 0 {
			rec.Record("cpu_pct", now, cpuSum/float64(n))
			rec.Record("mem_mb", now, memSum/float64(n))
		}
		if cur := len(rPods); len(res.ReplicaPath) == 0 || res.ReplicaPath[len(res.ReplicaPath)-1] != cur {
			res.ReplicaPath = append(res.ReplicaPath, cur)
		}
		if len(rPods) > res.MaxReplicas {
			res.MaxReplicas = len(rPods)
		}
	}

	steps := int(cfg.Duration / cfg.TickPeriod)
	scrapeEvery := int(cfg.ScrapePeriod / cfg.TickPeriod)
	if scrapeEvery < 1 {
		scrapeEvery = 1
	}
	now := sim.Now()
	gen.Tick(now) // establish the origin
	for step := 1; step <= steps; step++ {
		now = now.Add(cfg.TickPeriod)
		sim.RunUntil(now)
		for _, t := range gen.Tick(now) {
			if err := eng.Ingest(t); err != nil {
				return nil, err
			}
		}
		if err := eng.Quiesce(30 * time.Second); err != nil {
			return nil, fmt.Errorf("step %d: %w", step, err)
		}
		if step%scrapeEvery == 0 {
			ms.Scrape(now)
			hpaR.Reconcile(now)
			hpaS.Reconcile(now)
			// Apply the autoscaler's verdicts to the real engine.
			if err := eng.ScaleJoiners(tuple.R, joinerR.ReadyReplicas()); err != nil {
				return nil, err
			}
			if err := eng.ScaleJoiners(tuple.S, joinerS.ReadyReplicas()); err != nil {
				return nil, err
			}
			record(now)
		}
	}
	res.FinalReplicas = len(joinerR.Pods())
	memSeries := rec.Series("mem_mb")
	res.PeakMemMB = memSeries.Max()
	if len(memSeries) > 0 {
		res.FinalMemMB = memSeries[len(memSeries)-1].V
	}
	res.Results = resultCount.Load()
	res.TuplesIn = eng.Snapshot().TuplesIn
	return res, nil
}

// podBinder couples deployment pods to engine joiner members: pod index
// i of the joiner-r deployment reads the live metrics of the i-th R
// member. Both sides create and remove in LIFO order, so the binding is
// stable.
//
// Usage is read from the engine's metric registry — the same
// joiner.<rel>.<id>.work_units and .window_bytes series the /metrics
// endpoint exports — so the simulated kubelet observes exactly what an
// external scraper would. Pod index maps to member id through
// MemberIDs: ids are monotonic, not dense, after scale in/out.
type podBinder struct {
	eng  *core.Engine
	sim  *vclock.Sim
	cfg  AutoscaleConfig
	next map[tuple.Relation]int
}

func newPodBinder(eng *core.Engine, sim *vclock.Sim, cfg AutoscaleConfig) *podBinder {
	return &podBinder{eng: eng, sim: sim, cfg: cfg, next: map[tuple.Relation]int{}}
}

func (b *podBinder) hooks(rel tuple.Relation) cluster.PodHooks {
	return cluster.PodHooks{OnStart: func(p *cluster.Pod) (cluster.UsageFunc, func()) {
		idx := b.next[rel]
		b.next[rel]++
		heap, err := cluster.NewManagedHeap(b.cfg.HeapPolicy, 0, 0)
		if err != nil {
			panic(err) // validated in applyDefaults
		}
		reg := b.eng.Metrics()
		var lastWork int64
		var lastAt time.Time
		usage := func() cluster.ResourceList {
			ids := b.eng.MemberIDs(rel)
			if idx >= len(ids) {
				return cluster.ResourceList{}
			}
			prefix := fmt.Sprintf("joiner.%s.%d.", rel, ids[idx])
			workF, ok := reg.Value(prefix + "work_units")
			if !ok {
				return cluster.ResourceList{}
			}
			memF, _ := reg.Value(prefix + "window_bytes")
			work := int64(workF)
			now := b.sim.Now()
			var milli int64
			if !lastAt.IsZero() && now.After(lastAt) {
				rate := float64(work-lastWork) / now.Sub(lastAt).Seconds()
				milli = int64(rate * b.cfg.CPUMilliPerWork)
			}
			lastWork, lastAt = work, now
			return cluster.ResourceList{
				MilliCPU: milli,
				MemBytes: heap.Observe(int64(memF)),
			}
		}
		stop := func() { b.next[rel]-- }
		return usage, stop
	}}
}

// FormatAutoscaleResult renders the run like the thesis's figures: the
// input schedule, the replica path, and compact charts.
func FormatAutoscaleResult(res *AutoscaleResult, cfg AutoscaleConfig) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "input schedule: %s\n", cfg.Profile)
	fmt.Fprintf(&sb, "joiner-r replica path: %v (peak %d, final %d)\n",
		res.ReplicaPath, res.MaxReplicas, res.FinalReplicas)
	fmt.Fprintf(&sb, "tuples in: %d, results: %d\n\n", res.TuplesIn, res.Results)
	sb.WriteString(res.Recorder.FormatASCII("rate", 60, 6))
	if cfg.Target.Resource == cluster.CPU {
		sb.WriteString(res.Recorder.FormatASCII("cpu_pct", 60, 8))
	} else {
		sb.WriteString(res.Recorder.FormatASCII("mem_mb", 60, 8))
	}
	sb.WriteString(res.Recorder.FormatASCII("joiner_r_pods", 60, 4))
	return sb.String()
}
