package core

import (
	"fmt"
	"math/rand"
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

// TestEngineAdaptiveRoutingMigratesHotKey drives the full detect→
// decide→move loop on a clean fabric: half the stream is one key, the
// tracker promotes it, and the adaptation controller must migrate the
// key's already-stored pile off its hash owner — after which every
// probe (including ones for the migrated history) still finds exactly
// its matches.
func TestEngineAdaptiveRoutingMigratesHotKey(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	reg := metrics.NewRegistry()
	e := startEngine(t, Config{
		Predicate:       pred,
		Window:          time.Minute,
		Routers:         2,
		Shards:          3,
		RJoiners:        3,
		SJoiners:        3,
		AdaptiveRouting: true,
		HotFraction:     0.05,
		Metrics:         reg,
	}, col)

	rng := rand.New(rand.NewSource(17))
	var rs, ss []*tuple.Tuple
	seq := uint64(1)
	gen := func(n int) {
		var batch []*tuple.Tuple
		for i := 0; i < n; i++ {
			key := int64(7)
			if rng.Float64() > 0.5 {
				key = rng.Int63n(1000) + 100
			}
			ts := int64(len(rs)) * 10
			r := tuple.New(tuple.R, seq, ts, tuple.Int(key))
			seq++
			s := tuple.New(tuple.S, seq, ts, tuple.Int(key))
			seq++
			rs, ss = append(rs, r), append(ss, s)
			batch = append(batch, r, s)
		}
		ingestAll(t, e, batch)
	}
	counter := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	movedOut := func() float64 {
		var n float64
		for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
			for id := 0; id < 3; id++ {
				n += counter(fmt.Sprintf("joiner.%s.%d.migrated_out_tuples", rel, id))
			}
		}
		return n
	}

	// Enough traffic to cross the tracker's sample floor with a pile of
	// the hot key already sitting on its hash owners.
	gen(400)
	deadline := time.Now().Add(30 * time.Second)
	for counter("router_adapt.key_migrations") < 2 || movedOut() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hot key never migrated: key_migrations=%v moved_out=%v failures=%v hot=%v",
				counter("router_adapt.key_migrations"), movedOut(),
				counter("router_adapt.move_failures"), e.HotKeys())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Probes issued after the move must find the grafted history.
	gen(150)
	if err := e.Quiesce(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "adaptive")
	if counter("router_adapt.moved_tuples") == 0 {
		t.Error("router_adapt.moved_tuples did not advance")
	}
}

// TestEngineAdaptivePinnedKeyMigrates covers the operator override: a
// manual hot pin flips placement without a tracker promotion, and the
// engine must still route the pile migration through the controller.
func TestEngineAdaptivePinnedKeyMigrates(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	reg := metrics.NewRegistry()
	e := startEngine(t, Config{
		Predicate:       pred,
		Window:          time.Minute,
		Shards:          3,
		RJoiners:        3,
		SJoiners:        3,
		AdaptiveRouting: true,
		Metrics:         reg,
	}, col)

	// A modest uniform workload: nothing promotes organically.
	rs, ss, all := makeWorkload(150, 12, 5, 21)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.PinHotKey(tuple.Int(3).Hash(), true); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	deadline := time.Now().Add(20 * time.Second)
	for counter("router_adapt.key_migrations") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pinned key never migrated: key_migrations=%v failures=%v",
				counter("router_adapt.key_migrations"), counter("router_adapt.move_failures"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Join correctness must hold across the pin-triggered move.
	rs2, ss2, all2 := makeWorkload(150, 12, 5, 22)
	for _, tp := range all2 {
		tp.Seq += 1 << 20 // disjoint seq space from the first workload
	}
	ingestAll(t, e, all2)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := refJoin(append(rs, rs2...), append(ss, ss2...), pred, 60_000)
	verifyExactlyOnce(t, col.snapshot(), want, "pinned")
	if err := e.UnpinHotKey(tuple.Int(3).Hash()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAdaptiveRoutingValidation rejects the configuration the
// key migration cannot serve.
func TestEngineAdaptiveRoutingValidation(t *testing.T) {
	// AdaptiveRouting implies ContRand, so it inherits its constraint.
	if _, err := New(Config{
		Predicate: predicate.NewBand(0, 0, 1), Window: time.Minute,
		AdaptiveRouting: true,
	}); err == nil {
		t.Error("AdaptiveRouting with non-partitionable predicate accepted")
	}
}

// TestEngineKeyMigrationChaosColdKill is the hot-key tentpole chaos
// test: a skewed full-history join promotes one key, and while the
// controller is moving the key's pile the donor is cold-killed — core
// discarded, state recovered from its (tearing, failing) checkpoint
// store — with the broker fabric dropping, duplicating and delaying
// frames and a partition cut on top. The result multiset must still
// match the reference join exactly: no stored tuple lost, none
// double-probed into a duplicate result.
func TestEngineKeyMigrationChaosColdKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			runKeyMigrationChaos(t, seed)
		})
	}
}

func runKeyMigrationChaos(t *testing.T, seed int64) {
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
		AdaptiveRouting:    true,
		HotFraction:        0.05,
		Broker:             f,
		Metrics:            reg,
		Checkpoint:         stores,
		CheckpointInterval: 25 * time.Millisecond,
		MigrationTimeout:   60 * time.Second,
	}, col)

	deadline := time.Now().Add(120 * time.Second)
	const hotKey = int64(7)
	var rs, ss []*tuple.Tuple
	seq := uint64(1)
	ingestBatch := func(n int) {
		for i := 0; i < n; i++ {
			kr, ks := hotKey, hotKey
			if rng.Float64() > 0.5 {
				kr = rng.Int63n(20) + 100
			}
			if rng.Float64() > 0.5 {
				ks = rng.Int63n(20) + 100
			}
			ts := int64(len(rs)+len(ss)) * 5
			r := tuple.New(tuple.R, seq, ts, tuple.Int(kr))
			seq++
			s := tuple.New(tuple.S, seq, ts, tuple.Int(ks))
			seq++
			rs, ss = append(rs, r), append(ss, s)
			ingestRetry(t, e, r, deadline)
			ingestRetry(t, e, s, deadline)
		}
	}

	// Pile up the hot key on its hash owners and cross the tracker's
	// sample floor, checkpoints committing (and tearing) throughout.
	ingestBatch(300)
	for len(e.HotKeys()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot key never promoted")
		}
		ingestBatch(20)
		time.Sleep(10 * time.Millisecond)
	}

	// Cold-kill the hot key's R hash owner while the controller is (or
	// is about to start) moving its pile, and cut the fabric on top. The
	// migration must ride through via donor re-resolution and retries.
	donorIdx := int(tuple.Int(hotKey).Hash() % 3)
	if err := e.ColdCrashJoiner(tuple.R, donorIdx, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	f.Cut(50 * time.Millisecond)
	ingestBatch(50)

	counter := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	for counter("router_adapt.key_migrations") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("key migration never completed: key_migrations=%v failures=%v hot=%v",
				counter("router_adapt.key_migrations"),
				counter("router_adapt.move_failures"), e.HotKeys())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Probes after the move must find the migrated history.
	ingestBatch(50)

	f.Disable()
	if err := f.Settle(); err != nil {
		t.Fatal(err)
	}
	stores.Disable()
	if err := e.Settle(300*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, int64(1)<<62), "key-migration-chaos")

	if counter("faults.drop") == 0 || counter("faults.dup") == 0 {
		t.Errorf("fault injection did not fire: drop=%v dup=%v",
			counter("faults.drop"), counter("faults.dup"))
	}
	var movedOut float64
	for id := 0; id < 3; id++ {
		movedOut += counter(fmt.Sprintf("joiner.R.%d.migrated_out_tuples", id))
	}
	for id := 0; id < 2; id++ {
		movedOut += counter(fmt.Sprintf("joiner.S.%d.migrated_out_tuples", id))
	}
	if movedOut == 0 {
		t.Error("no tuple was moved out of a donor")
	}
	t.Logf("key_migrations=%v moved=%v failures=%v store_tear=%v",
		counter("router_adapt.key_migrations"), counter("router_adapt.moved_tuples"),
		counter("router_adapt.move_failures"), counter("faults.store_tear"))
}
