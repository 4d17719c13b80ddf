package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/checkpoint"
	"bistream/internal/faults"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// TestEngineMigrationExactlyOnceUnderChaos is the migration tentpole
// chaos test: a full-history join scales in while the broker fabric
// drops, duplicates and delays every stream the migration's barriers
// wait on, the checkpoint stores tear and fail writes (so graft
// commits retry), the network partitions mid-migration, and the donor
// itself is cold-killed in the middle of its own migration — core
// discarded, state recovered from its checkpoint store. The result
// multiset must still match the full-history reference join exactly:
// zero lost, zero duplicated.
func TestEngineMigrationExactlyOnceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			runMigrationChaos(t, seed)
		})
	}
}

func runMigrationChaos(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg := metrics.NewRegistry()
	inner := broker.New(nil)
	defer inner.Close()
	f := faults.Wrap(inner, faults.Config{
		Seed:    seed,
		Metrics: reg,
		Default: faults.Rule{Drop: 0.03, Dup: 0.03, Delay: 0.05, MaxDelay: time.Millisecond},
		PerExchange: map[string]faults.Rule{
			topo.EntryExchange: {Drop: 0.03, Dup: 0.03, Reorder: 0.05},
		},
	})
	stores := &faults.StoreProvider{
		Inner:   checkpoint.NewMemProvider(),
		Seed:    seed,
		Rule:    faults.StoreRule{Tear: 0.08, Fail: 0.04},
		Metrics: reg,
	}

	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:          pred,
		FullHistory:        true,
		Routers:            2,
		Shards:             3,
		RJoiners:           3,
		SJoiners:           2,
		Broker:             f,
		Metrics:            reg,
		Checkpoint:         stores,
		CheckpointInterval: 25 * time.Millisecond,
		MigrationTimeout:   60 * time.Second,
	}, col)

	deadline := time.Now().Add(90 * time.Second)
	var rs, ss []*tuple.Tuple
	seq := uint64(1)
	ingestBatch := func(n int) {
		for i := 0; i < n; i++ {
			ts := int64(len(rs)+len(ss)) * 5
			r := tuple.New(tuple.R, seq, ts, tuple.Int(rng.Int63n(20)))
			seq++
			s := tuple.New(tuple.S, seq, ts, tuple.Int(rng.Int63n(20)))
			seq++
			rs, ss = append(rs, r), append(ss, s)
			ingestRetry(t, e, r, deadline)
			ingestRetry(t, e, s, deadline)
		}
	}

	// Accumulate history on all three R members before the shrink, with
	// checkpoints committing (and tearing) while faults are active.
	for round := 0; round < 3; round++ {
		ingestBatch(30)
		time.Sleep(60 * time.Millisecond)
	}

	// Shrink R 3 -> 2 with the fabric still faulty; cold-kill the donor
	// mid-migration, as soon as it is draining, and partition the
	// network on top.
	scaleDone := make(chan error, 1)
	go func() { scaleDone <- e.ScaleJoiners(tuple.R, 2) }()
	awaitDonor(t, e, tuple.R)
	if err := e.ColdCrashDonor(tuple.R, 20*time.Millisecond); err != nil {
		// The migration may already have completed; the kill is then moot.
		t.Logf("donor cold-kill skipped: %v", err)
	}
	f.Cut(50 * time.Millisecond)
	ingestBatch(30)
	if err := <-scaleDone; err != nil {
		t.Fatalf("scale-in with migration: %v", err)
	}
	if got := e.NumJoiners(tuple.R); got != 2 {
		t.Fatalf("NumJoiners(R) = %d after scale-in, want 2", got)
	}

	// Post-migration probes must find the migrated history.
	ingestBatch(30)

	f.Disable()
	if err := f.Settle(); err != nil {
		t.Fatal(err)
	}
	stores.Disable()
	if err := e.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, int64(1)<<62), "migration-chaos")

	counter := func(name string) int64 {
		v, _ := reg.Value(name)
		return int64(v)
	}
	if counter("faults.drop") == 0 || counter("faults.dup") == 0 {
		t.Errorf("fault injection did not fire: drop=%d dup=%d",
			counter("faults.drop"), counter("faults.dup"))
	}
	if counter("engine.migrations") == 0 {
		t.Error("no migration completed")
	}
	var grafted int64
	for id := 0; id < 3; id++ {
		grafted += counter(fmt.Sprintf("joiner.R.%d.migrated_in_tuples", id))
	}
	if grafted == 0 {
		t.Error("no tuple was grafted onto a survivor")
	}
	t.Logf("migrations=%d migrated_tuples=%d grafted_seen=%d store_tear=%d",
		counter("engine.migrations"), counter("engine.migrated_tuples"),
		grafted, counter("faults.store_tear"))
}

// awaitDonor polls the membership table until one of rel's records is a
// draining donor: out of the layout, not yet cut over.
func awaitDonor(t *testing.T, e *Engine, rel tuple.Relation) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		e.mu.Lock()
		draining := slices.ContainsFunc(e.members, func(m *member) bool {
			return m.rel == rel && m.state == memberDonor
		})
		e.mu.Unlock()
		if draining {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s member became a donor", rel)
		}
	}
}

// TestEngineReapTickerRetiresSealed is the regression test for the
// sealed-joiner leak: Reap used to run only from Stats, so an engine
// nobody polled kept drained members (and their queues) forever. The
// reap ticker must retire them without any Stats call.
func TestEngineReapTickerRetiresSealed(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	reg := metrics.NewRegistry()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    100 * time.Millisecond,
		Shards:    3,
		RJoiners:  2,
		Metrics:   reg,
	}, col)

	ingestAll(t, e, []*tuple.Tuple{tuple.New(tuple.R, 1, 0, tuple.Int(1))})
	if err := e.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleJoiners(tuple.R, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("engine.sealed"); v != 1 {
		t.Fatalf("expected 1 sealed member, gauge reads %v", v)
	}
	// Deadline is Window + 2s; the ticker fires every 500ms. Poll the
	// gauge only — deliberately never calling Stats or Reap.
	waitUntil := time.Now().Add(10 * time.Second)
	for time.Now().Before(waitUntil) {
		if v, _ := reg.Value("engine.sealed"); v == 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("sealed member was never reaped without a Stats call")
}
