package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/router"
	"bistream/internal/tuple"
)

func TestIngestContextCancelled(t *testing.T) {
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: predicate.NewEqui(0, 0),
		Window:    time.Minute,
	}, col)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.IngestContext(ctx, tuple.New(tuple.R, 0, 1, tuple.Int(1)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := e.Snapshot().TuplesIn; got != 0 {
		t.Errorf("TuplesIn = %d after cancelled ingest, want 0", got)
	}
	if err := e.IngestContext(context.Background(), tuple.New(tuple.R, 0, 1, tuple.Int(1))); err != nil {
		t.Fatalf("live-context ingest: %v", err)
	}
}

func TestIngestContextCancelUnderBackpressure(t *testing.T) {
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:  predicate.NewEqui(0, 0),
		Window:     time.Minute,
		EntryBound: 1,
		Routers:    1,
	}, col)
	// Stop the routers so nothing drains the entry queue, then fill it.
	e.mu.Lock()
	routers := append([]*router.Service(nil), e.routers...)
	e.mu.Unlock()
	for _, r := range routers {
		r.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := e.IngestContext(ctx, tuple.New(tuple.R, 0, 1, tuple.Int(1)))
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			return // blocked ingest was cancelled: the point of the test
		}
		if time.Now().After(deadline) {
			t.Fatal("entry bound never backpressured the publisher")
		}
	}
}

// TestSnapshotMatchesMetrics ingests a known workload and checks the
// structured Snapshot, the legacy Stats shim, and the /metrics
// exposition agree on the same numbers. It then walks members through
// their life cycle — a windowed scale-in and its reap, a full-history
// migration — and checks the membership gauges and Snapshot.Sealed at
// every step.
func TestSnapshotMatchesMetrics(t *testing.T) {
	type step struct {
		name string
		do   func(*Engine) error
		want gauges
	}
	scaleInR := func(e *Engine) error { return e.ScaleJoiners(tuple.R, 1) }
	reap := func(e *Engine) error {
		// The sealed member's deadline is Window + 2s; Snapshot reaps.
		deadline := time.Now().Add(10 * time.Second)
		for e.Snapshot().Sealed != 0 {
			if time.Now().After(deadline) {
				return errors.New("sealed member never reaped")
			}
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}
	for _, tc := range []struct {
		name        string
		window      time.Duration
		fullHistory bool
		steps       []step
	}{
		{name: "windowed", window: 100 * time.Millisecond, steps: []step{
			{"scale-in", scaleInR, gauges{r: 1, s: 2, sealed: 1}},
			{"reap", reap, gauges{r: 1, s: 2}},
		}},
		{name: "full-history", fullHistory: true, steps: []step{
			{"migrate", scaleInR, gauges{r: 1, s: 2, migrations: 1}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := checkSnapshotMatchesMetrics(t, tc.window, tc.fullHistory)
			checkGauges(t, e, "start", gauges{r: 2, s: 2})
			for _, st := range tc.steps {
				if err := st.do(e); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				checkGauges(t, e, st.name, st.want)
			}
		})
	}
}

// gauges are the expected membership gauges after a life-cycle step;
// sealed is also Snapshot.Sealed.
type gauges struct{ r, s, sealed, migrating, migrations float64 }

// checkGauges compares the membership gauges and Snapshot.Sealed with
// want after one life-cycle step.
func checkGauges(t *testing.T, e *Engine, step string, want gauges) {
	t.Helper()
	reg := e.Metrics()
	for name, w := range map[string]float64{
		"engine.joiners.R":  want.r,
		"engine.joiners.S":  want.s,
		"engine.sealed":     want.sealed,
		"engine.migrating":  want.migrating,
		"engine.migrations": want.migrations,
	} {
		if v, _ := reg.Value(name); v != w {
			t.Errorf("%s: %s = %v, want %v", step, name, v, w)
		}
	}
	if got := e.Snapshot().Sealed; float64(got) != want.sealed {
		t.Errorf("%s: Snapshot.Sealed = %d, want %v", step, got, want.sealed)
	}
}

// checkSnapshotMatchesMetrics starts an engine, runs the known
// workload and checks Snapshot against /metrics.
func checkSnapshotMatchesMetrics(t *testing.T, window time.Duration, fullHistory bool) *Engine {
	t.Helper()
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:   predicate.NewEqui(0, 0),
		Window:      window,
		FullHistory: fullHistory,
		Routers:     2,
		RJoiners:    2,
		SJoiners:    2,
		MetricsAddr: "127.0.0.1:0",
		TraceSample: 1, // stamp every tuple so stage series appear
	}, col)
	const pairs = 50
	for i := 0; i < pairs; i++ {
		ts := int64(1000 + i)
		if err := e.Ingest(tuple.New(tuple.R, 0, ts, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		if err := e.Ingest(tuple.New(tuple.S, 0, ts, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.SchemaVersion != SnapshotSchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", snap.SchemaVersion, SnapshotSchemaVersion)
	}
	if snap.TuplesIn != 2*pairs {
		t.Errorf("TuplesIn = %d, want %d", snap.TuplesIn, 2*pairs)
	}
	if snap.Results != int64(pairs) {
		t.Errorf("Results = %d, want %d", snap.Results, pairs)
	}
	if len(snap.Routers) != 2 || len(snap.RJoiners) != 2 || len(snap.SJoiners) != 2 {
		t.Fatalf("snapshot shape: %d routers, %d+%d joiners",
			len(snap.Routers), len(snap.RJoiners), len(snap.SJoiners))
	}

	// The registry served over HTTP must agree with the structured view.
	addr := e.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with MetricsAddr configured")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("engine_tuples_in_total %d", snap.TuplesIn),
		fmt.Sprintf("engine_results_total %d", snap.Results),
		"router_0_routed_total",
		"joiner_R_0_stored_total",
		"broker_queue_depth",
		"stage_e2e_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Per-member counters must match the snapshot's member views.
	reg := e.Metrics()
	for _, m := range snap.RJoiners {
		name := fmt.Sprintf("joiner.R.%d.stored", m.ID)
		if v, ok := reg.Value(name); !ok || int64(v) != m.Stored {
			t.Errorf("registry %s = %v,%v; snapshot says %d", name, v, ok, m.Stored)
		}
	}
	routedTotal := int64(0)
	for _, r := range snap.Routers {
		routedTotal += r.TuplesRouted
	}
	if routedTotal != snap.TuplesIn {
		t.Errorf("routers routed %d of %d ingested", routedTotal, snap.TuplesIn)
	}
	return e
}

// TestScaleUnregistersMetrics checks retired members disappear from the
// registry once their drain completes.
func TestScaleUnregistersMetrics(t *testing.T) {
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: predicate.NewEqui(0, 0),
		Window:    50 * time.Millisecond,
		RJoiners:  2,
	}, col)
	reg := e.Metrics()
	if _, ok := reg.Value("joiner.R.1.stored"); !ok {
		t.Fatal("member 1 instruments missing before scale-in")
	}
	if err := e.ScaleJoiners(tuple.R, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.Reap()
		if _, ok := reg.Value("joiner.R.1.stored"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retired member's instruments still registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := reg.Value("joiner.R.0.stored"); !ok {
		t.Error("surviving member's instruments vanished")
	}

	if err := e.ScaleRouters(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Value("router.1.routed"); !ok {
		t.Fatal("new router's instruments missing")
	}
	if err := e.ScaleRouters(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Value("router.1.routed"); ok {
		t.Error("retired router's instruments still registered")
	}
}
