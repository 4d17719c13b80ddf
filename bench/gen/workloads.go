package gen

import (
	"fmt"
	"time"

	"bistream/bench/ref"
	"bistream/internal/predicate"
	"bistream/internal/window"
)

// Workload is one set of inputs the benchmark runs: a stream, the join
// it feeds, and how hard it is driven. Everything here is frozen — a
// later change is measured against these constants, so editing one
// invalidates every earlier baseline of that workload.
type Workload struct {
	Name string
	// Why records what the workload is for and which layer should
	// dominate it (mirrored in BENCHMARK.json and bench/README.md).
	Why string

	Stream Spec
	// Band selects |R[0]-S[0]| <= Width (broadcast routing, ordered
	// sub-indexes); otherwise the join is R[0] = S[0] (hash routing).
	Band  bool
	Width int64
	// Window is the sliding window in event time.
	Window time.Duration
	// ContRand turns on frequency-aware routing: the HotTracker promotes
	// keys above 1% of recent traffic, whose stores then scatter and
	// whose probes broadcast.
	ContRand bool
	// Wire runs the engine through a wire.Client against a 3-node
	// replica group at quorum 2 instead of the in-process broker.
	Wire bool

	// Warmup tuples are ingested and quiesced during set-up so caches,
	// slabs and (most of) the window are populated before timing.
	Warmup int
	// SatRate sizes the closed-loop saturation phase: it ingests
	// SatRate × SatShare × seconds tuples as fast as Ingest admits.
	// The value is this box's saturation throughput at the baseline, so
	// the phase takes about SatShare of the run there; it is a tuple
	// count, not a pace.
	SatRate float64
	// PacedRate is the open-loop rate of the paced phase, tuples/s.
	PacedRate float64
	// LedgerTuples is how many tuples the traced per-layer run replays.
	LedgerTuples int
	// ResultsPerTuple is the declared range of expected results per
	// ingested tuple over a full-length run — the guard against a
	// keying that joins nothing (the legacy root benches emit zero
	// results).
	ResultsPerTuple [2]float64
}

// Predicate is the workload's join predicate as the engine takes it.
func (w *Workload) Predicate() predicate.Predicate {
	if w.Band {
		return predicate.NewBand(0, 0, float64(w.Width))
	}
	return predicate.NewEqui(0, 0)
}

// Expected is the reference join's result for the workload over st: the
// sorted pair keys the engine has to emit, each exactly once.
func (w *Workload) Expected(st *Stream) []uint64 {
	return ref.Join(ref.Input{Rel: st.Rel, Key: st.Key, TS: st.TS},
		ref.Pred{Band: w.Band, Width: w.Width}, window.Sliding{Span: w.Window})
}

// The run is split between the two measured phases in these shares of
// --seconds.
const (
	SatShare   = 0.4
	PacedShare = 0.6
	// NominalSeconds is the run length the fixed sizes (Warmup,
	// LedgerTuples) are meant for; shorter runs — the smoke test — scale
	// them down in proportion, longer runs keep them.
	NominalSeconds = 13
)

// scaled shrinks a fixed size for runs shorter than NominalSeconds.
func scaled(n int, seconds float64) int {
	if seconds >= NominalSeconds {
		return n
	}
	return max(int(float64(n)*seconds/NominalSeconds), 1)
}

// WarmupTuples is the warm-up prefix's length for a run length.
func (w *Workload) WarmupTuples(seconds float64) int { return scaled(w.Warmup, seconds) }

// LedgerSize is how many tuples the traced run replays for a run length.
func (w *Workload) LedgerSize(seconds float64) int { return scaled(w.LedgerTuples, seconds) }

// SatTuples is the saturation phase's tuple count for a run length.
func (w *Workload) SatTuples(seconds float64) int {
	return max(int(w.SatRate*SatShare*seconds), 1)
}

// PacedTuples is the paced phase's tuple count for a run length.
func (w *Workload) PacedTuples(seconds float64) int {
	return max(int(w.PacedRate*PacedShare*seconds), 1)
}

// TotalTuples is the whole run's stream length.
func (w *Workload) TotalTuples(seconds float64) int {
	return w.WarmupTuples(seconds) + w.SatTuples(seconds) + w.PacedTuples(seconds)
}

// Workloads is the benchmark's fixed workload set, in run order.
var Workloads = []*Workload{
	{
		Name: "equi_inproc",
		Why:  "uniform equi-join, hash routing, in-process broker: per-message cost in core/broker/tuple/protocol/router dominates, index work is a point probe",
		Stream: Spec{
			Name: "equi_inproc", Keys: 100_000, PerMS: 50,
		},
		Window: 3 * time.Second,
		Warmup: 50_000, SatRate: 150_000, PacedRate: 45_000,
		LedgerTuples:    200_000,
		ResultsPerTuple: [2]float64{0.5, 0.9},
	},
	{
		Name: "band_inproc",
		Why:  "band join, broadcast routing (p/2+1 copies), ordered skip-list range scans that bypass index.Sharded: index+joiner probe time dominates",
		Stream: Spec{
			Name: "band_inproc", Keys: 100_000, PerMS: 50,
		},
		Band: true, Width: 2,
		Window: 200 * time.Millisecond,
		Warmup: 50_000, SatRate: 60_000, PacedRate: 20_000,
		LedgerTuples:    100_000,
		ResultsPerTuple: [2]float64{0.15, 0.35},
	},
	{
		Name: "equi_zipf_adaptive",
		Why:  "zipf(1.1) equi-join, hot keys scattered by the HotTracker, ~11 results per tuple: the result path (emit, pair codec, dedup, sink) does most of the work",
		Stream: Spec{
			Name: "equi_zipf_adaptive", Keys: 100_000, ZipfS: 1.1, ZipfV: 1, PerMS: 50,
		},
		Window:   16 * time.Millisecond,
		ContRand: true,
		Warmup:   50_000, SatRate: 45_000, PacedRate: 15_000,
		LedgerTuples:    40_000,
		ResultsPerTuple: [2]float64{7, 15},
	},
	{
		Name: "equi_wire_quorum2",
		Why:  "uniform equi-join through wire.Client and a 3-node replica group at quorum 2: every hop pays framing and a quorum commit, joiner and index idle",
		Stream: Spec{
			Name: "equi_wire_quorum2", Keys: 2_000, PerMS: 50,
		},
		Window: 60 * time.Millisecond,
		Wire:   true,
		Warmup: 4_000, SatRate: 3_500, PacedRate: 1_500,
		LedgerTuples:    3_000,
		ResultsPerTuple: [2]float64{0.5, 0.9},
	},
}

// ByName finds a workload.
func ByName(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("gen: unknown workload %q", name)
}
