package core

import (
	"math/rand"
	"sync/atomic"
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

// TestColdCrashWithoutCheckpointLosesResults is the companion
// demonstration the checkpoint subsystem exists to refute: without a
// checkpoint provider, a cold crash (fresh core, nothing recovered)
// after the stored tuples were acknowledged loses the window outright —
// S tuples arriving afterwards probe an empty index and their joins are
// silently missing.
func TestColdCrashWithoutCheckpointLosesResults(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
	}, col)

	var rs, ss []*tuple.Tuple
	for i := 0; i < 40; i++ {
		rs = append(rs, tuple.New(tuple.R, uint64(i+1), int64(i)*5, tuple.Int(int64(i%8))))
	}
	ingestAll(t, e, rs)
	// Quiesce: every R tuple is stored AND acknowledged — the broker
	// owes the joiner nothing, so nothing will be redelivered.
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ColdCrashJoiner(tuple.R, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ss = append(ss, tuple.New(tuple.S, uint64(1000+i), int64(i)*5+1, tuple.Int(int64(i%8))))
	}
	ingestAll(t, e, ss)
	if err := e.Settle(200*time.Millisecond, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	want := refJoin(rs, ss, pred, 60_000)
	got := col.snapshot()
	if len(want) == 0 {
		t.Fatal("reference join is empty; the demonstration proves nothing")
	}
	if len(got) != 0 {
		t.Fatalf("cold crash without checkpointing still produced %d of %d results; "+
			"expected total loss of the acked window", len(got), len(want))
	}
}

// TestColdCrashWithCheckpointRecoversWindow is the mirror image: same
// schedule, but the engine checkpoints to an in-memory provider. The
// cold-crashed member discards its core, recovers the window from the
// checkpoint store, and the post-crash S tuples find every stored R
// tuple — the result multiset matches the reference join exactly.
func TestColdCrashWithCheckpointRecoversWindow(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:          pred,
		Window:             time.Minute,
		Shards:             3,
		Checkpoint:         checkpoint.NewMemProvider(),
		CheckpointInterval: 20 * time.Millisecond,
	}, col)

	var rs, ss []*tuple.Tuple
	for i := 0; i < 40; i++ {
		rs = append(rs, tuple.New(tuple.R, uint64(i+1), int64(i)*5, tuple.Int(int64(i%8))))
	}
	ingestAll(t, e, rs)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ColdCrashJoiner(tuple.R, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ss = append(ss, tuple.New(tuple.S, uint64(1000+i), int64(i)*5+1, tuple.Int(int64(i%8))))
	}
	ingestAll(t, e, ss)
	if err := e.Settle(200*time.Millisecond, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "cold-crash-recovered")

	recoveries, _ := e.Metrics().Value("joiner.R.0.checkpoint_recoveries")
	if recoveries == 0 {
		t.Error("cold restart did not recover from the checkpoint store")
	}
}

// TestColdCrashOfScaledInMemberStaysSealed cold-crashes a member and
// scales it in while it is down. The fresh incarnation must take the
// member's sealed entry, not come back into the active group: a
// resurrected active member would consume queues that Reap deletes
// when it retires the sealed entry.
func TestColdCrashOfScaledInMemberStaysSealed(t *testing.T) {
	e := startEngine(t, Config{
		Predicate: predicate.NewEqui(0, 0),
		Window:    time.Minute,
		RJoiners:  2,
	}, newCollector())
	crashed := make(chan error, 1)
	go func() { crashed <- e.ColdCrashJoiner(tuple.R, 1, 300*time.Millisecond) }()
	time.Sleep(50 * time.Millisecond)
	if err := e.ScaleJoiners(tuple.R, 1); err != nil {
		t.Fatal(err)
	}
	if err := <-crashed; err != nil {
		t.Fatal(err)
	}
	if n := e.NumJoiners(tuple.R); n != 1 {
		t.Errorf("NumJoiners(R) = %d, want 1", n)
	}
	if ids := e.MemberIDs(tuple.R); len(ids) != 1 || ids[0] != 0 {
		t.Errorf("MemberIDs(R) = %v, want [0]", ids)
	}
	if sealed := e.Snapshot().Sealed; sealed != 1 {
		t.Errorf("Sealed = %d, want 1", sealed)
	}
}

// TestEngineExactlyOnceUnderColdCrashesAndTornCheckpoints is the
// tentpole chaos test: the broker fabric drops, duplicates, delays and
// reorders (entry only), the checkpoint stores tear and fail writes
// mid-checkpoint (each tear is a simulated power loss that persists a
// truncated blob), the network partitions, and joiners on both sides
// are cold-killed mid-join — core discarded, state recovered only from
// the surviving checkpoint epochs plus broker redelivery of unacked
// deliveries. The join's result multiset must still match the
// reference exactly: zero lost, zero duplicated.
func TestEngineExactlyOnceUnderColdCrashesAndTornCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			runColdCrashChaos(t, seed)
		})
	}
}

func runColdCrashChaos(t *testing.T, seed int64) {
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
		Window:             time.Minute,
		Routers:            2,
		Shards:             3,
		RJoiners:           2,
		SJoiners:           2,
		Broker:             f,
		Metrics:            reg,
		Checkpoint:         stores,
		CheckpointInterval: 25 * time.Millisecond,
	}, col)

	deadline := time.Now().Add(60 * time.Second)
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

	for round := 0; round < 6; round++ {
		ingestBatch(30)
		// Hold the round open for a few checkpoint intervals: ingest alone
		// takes single-digit milliseconds, and the point of this run is
		// that checkpoints commit (and tear, and fail) WHILE faults are
		// active, not in the quiet settle afterwards.
		time.Sleep(60 * time.Millisecond)
		switch round {
		case 1:
			if err := e.ColdCrashJoiner(tuple.R, rng.Intn(2), 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 2:
			f.Cut(50 * time.Millisecond)
		case 3:
			if err := e.ColdCrashJoiner(tuple.S, rng.Intn(2), 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Cold-kill during a partition: the replacement's recovery
			// reads the store fine (local disk), but its restart races
			// the cut — the supervised retry policy must carry it through.
			f.Cut(50 * time.Millisecond)
			if err := e.ColdCrashJoiner(tuple.R, rng.Intn(2), 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}

	f.Disable()
	if err := f.Settle(); err != nil {
		t.Fatal(err)
	}
	stores.Disable()
	if err := e.Settle(300*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "cold-crash-chaos")

	counter := func(name string) int64 {
		v, _ := reg.Value(name)
		return int64(v)
	}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		for id := 0; id < 2; id++ {
			prefix := "joiner." + rel.String() + "." + string(rune('0'+id)) + "."
			t.Logf("%s: saves=%d save_errors=%d segs_written=%d recoveries=%d",
				prefix, counter(prefix+"checkpoint_saves"), counter(prefix+"checkpoint_save_errors"),
				counter(prefix+"checkpoint_segments_written"), counter(prefix+"checkpoint_recoveries"))
		}
	}
	t.Logf("store_tear=%d store_fail=%d", counter("faults.store_tear"), counter("faults.store_fail"))
	if counter("faults.drop") == 0 || counter("faults.dup") == 0 {
		t.Errorf("fault injection did not fire: drop=%d dup=%d",
			counter("faults.drop"), counter("faults.dup"))
	}
	if counter("faults.store_tear") == 0 {
		t.Error("no checkpoint write was torn — torn-write recovery untested by this run")
	}
	var recoveries, deduped int64
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		for id := 0; id < 2; id++ {
			prefix := "joiner." + rel.String() + "." + string(rune('0'+id)) + "."
			recoveries += counter(prefix + "checkpoint_recoveries")
		}
	}
	snap := e.Snapshot()
	for _, m := range append(snap.RJoiners, snap.SJoiners...) {
		deduped += m.Deduped
	}
	if recoveries == 0 {
		t.Error("no cold-crashed member recovered from its checkpoint store")
	}
	if deduped == 0 {
		t.Error("no redelivered tuple was suppressed — dedup untested by this run")
	}
}

// TestSupervisorReplacesStuckJoiner wedges a member (stopped service,
// queues accumulating) and verifies the supervision loop notices the
// stalled received counter against a growing backlog, cold-replaces the
// member from its checkpoint store, and the join completes
// exactly-once.
func TestSupervisorReplacesStuckJoiner(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	reg := metrics.NewRegistry()
	e := startEngine(t, Config{
		Predicate:          pred,
		Window:             time.Minute,
		Metrics:            reg,
		Checkpoint:         checkpoint.NewMemProvider(),
		CheckpointInterval: 20 * time.Millisecond,
	}, col)

	rs, ss, all := makeWorkload(80, 8, 5, 3)
	half := len(all) / 2
	ingestAll(t, e, all[:half])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Wedge the R member: stop its service outright. Its durable queues
	// stay bound and keep accumulating; its received counter freezes.
	stuck := e.activeSvc(tuple.R, 0)
	stuck.Stop()
	ingestAll(t, e, all[half:])

	var replaced atomic.Int32
	sup := e.Supervise(SupervisorConfig{
		Interval: 50 * time.Millisecond,
		Stall:    250 * time.Millisecond,
		OnReplace: func(rel tuple.Relation, id int32) {
			if rel == tuple.R && id == stuck.ID() {
				replaced.Add(1)
			}
		},
	})
	defer sup.Stop()

	waitUntil := time.Now().Add(15 * time.Second)
	for replaced.Load() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(20 * time.Millisecond)
	}
	if replaced.Load() == 0 {
		t.Fatal("supervisor did not replace the wedged member")
	}
	if err := e.Settle(300*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "supervisor-replace")
	if v, _ := reg.Value("engine.supervisor_replacements"); v == 0 {
		t.Error("supervisor_replacements counter did not move")
	}
}
