package core

import (
	"fmt"
	"strings"
	"sync"
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

// countingProvider counts checkpoint writes per member. Every running
// incarnation of a member checkpoints on a timer, so a count that keeps
// growing after the member retired shows an incarnation still running.
type countingProvider struct {
	inner *checkpoint.MemProvider
	mu    sync.Mutex
	puts  map[string]int
}

type countingStore struct {
	checkpoint.Store
	p   *countingProvider
	key string
}

func (p *countingProvider) StoreFor(rel tuple.Relation, id int32) (checkpoint.Store, error) {
	s, err := p.inner.StoreFor(rel, id)
	return countingStore{Store: s, p: p, key: fmt.Sprintf("%s-%d", rel, id)}, err
}

func (p *countingProvider) count(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.puts[key]
}

func (s countingStore) Put(key string, blob []byte) error {
	s.p.mu.Lock()
	s.p.puts[s.key]++
	s.p.mu.Unlock()
	return s.Store.Put(key, blob)
}

// parkedRig is a full-history engine whose R donor is parked: every
// result publish is dropped until faults.Disable, so the donor's retry
// backlog never empties and its migration times out in the cut-over
// wait, after its state already moved to the survivor.
type parkedRig struct {
	e      *Engine
	f      *faults.Client
	inner  *broker.Broker
	reg    *metrics.Registry
	stores *countingProvider
	col    *collector
	rs, ss []*tuple.Tuple
}

func parkDonor(t *testing.T) *parkedRig {
	t.Helper()
	g := &parkedRig{
		inner:  broker.New(nil),
		reg:    metrics.NewRegistry(),
		stores: &countingProvider{inner: checkpoint.NewMemProvider(), puts: map[string]int{}},
		col:    newCollector(),
	}
	t.Cleanup(func() { g.inner.Close() })
	g.f = faults.Wrap(g.inner, faults.Config{
		Metrics:     g.reg,
		PerExchange: map[string]faults.Rule{topo.ResultExchange: {Drop: 1}},
	})
	g.e = startEngine(t, Config{
		Predicate:          predicate.NewEqui(0, 0),
		FullHistory:        true,
		RJoiners:           2,
		Broker:             g.f,
		Metrics:            g.reg,
		Checkpoint:         g.stores,
		CheckpointInterval: 20 * time.Millisecond,
		MigrationTimeout:   time.Second,
	}, g.col)
	var all []*tuple.Tuple
	g.rs, g.ss, all = makeWorkload(100, 10, 5, 1)
	ingestAll(t, g.e, all)
	// The donor is R-1, the group's last member. Once it has emitted,
	// its retry backlog holds the dropped results.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := g.reg.Value("joiner.R.1.results"); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("donor R-1 emitted no result")
		}
		time.Sleep(5 * time.Millisecond)
	}
	err := g.e.ScaleJoiners(tuple.R, 1)
	if err == nil || !strings.Contains(err.Error(), "parked") {
		t.Fatalf("ScaleJoiners(R, 1) = %v, want a cut-over stall that parks the donor", err)
	}
	if v, _ := g.reg.Value("engine.migrating"); v != 1 {
		t.Fatalf("engine.migrating = %v with the donor parked, want 1", v)
	}
	if ids := g.e.MemberIDs(tuple.R); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("MemberIDs(R) = %v with the donor parked, want [0]", ids)
	}
	return g
}

// awaitRetired waits until no donor is migrating any more.
func (g *parkedRig) awaitRetired(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := g.reg.Value("engine.migrating"); v == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the parked donor was never retired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkGone asserts the donor's queues are deleted and that no
// incarnation of it still checkpoints. The record retires before its
// service does, so the queues may outlive the gauge by a moment.
func (g *parkedRig) checkGone(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, q := range []string{topo.StoreQueue(tuple.R, 1), topo.JoinQueue(tuple.R, 1)} {
		for {
			if _, err := g.inner.QueueStats(q); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("queue %s of the retired donor still exists", q)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	before := g.stores.count("R-1")
	time.Sleep(10 * 20 * time.Millisecond) // ten checkpoint intervals
	if after := g.stores.count("R-1"); after != before {
		t.Errorf("an incarnation of retired R-1 is still running: %d checkpoint writes after retirement", after-before)
	}
}

// checkExact ingests a batch after the retirement, which must find the
// migrated history on the survivor, and checks the result multiset.
func (g *parkedRig) checkExact(t *testing.T) {
	t.Helper()
	rs, ss, all := makeWorkload(50, 10, 5, 2)
	for _, tp := range all {
		tp.Seq += 1000
		tp.TS += 1000
	}
	ingestAll(t, g.e, all)
	if err := g.e.Settle(300*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	want := refJoin(append(g.rs, rs...), append(g.ss, ss...), predicate.NewEqui(0, 0), int64(1)<<62)
	verifyExactlyOnce(t, g.col.snapshot(), want, "parked-donor")
}

// TestEngineParkedDonorRetiredByReap parks a full-history scale-in
// donor whose cut-over wait timed out, releases the hold, and checks
// that Reap retires it: engine.migrations counts it, its queues are
// gone, and no result is lost or duplicated.
func TestEngineParkedDonorRetiredByReap(t *testing.T) {
	g := parkDonor(t)
	if v, _ := g.reg.Value("engine.migrations"); v != 0 {
		t.Fatalf("engine.migrations = %v before the reap, want 0", v)
	}
	g.f.Disable()
	g.awaitRetired(t)
	g.checkGone(t) // Reap counts the migration before it deletes the queues
	if v, _ := g.reg.Value("engine.migrations"); v != 1 {
		t.Errorf("engine.migrations = %v after the reap, want 1", v)
	}
	g.checkExact(t)
}

// TestReapRacesColdCrashOfParkedDonor cold-crashes a parked donor while
// another goroutine calls Reap in a loop. Reap must read the donor's
// incarnation and barrier under the engine lock (the race detector
// flags it otherwise), and the incarnation it retires must be the
// current one, so no incarnation of the member is left running.
func TestReapRacesColdCrashOfParkedDonor(t *testing.T) {
	g := parkDonor(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				g.e.Reap()
			}
		}
	}()
	err := g.e.ColdCrashDonor(tuple.R, 20*time.Millisecond)
	g.f.Disable()
	g.awaitRetired(t)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("ColdCrashDonor on a parked donor: %v", err)
	}
	g.checkGone(t)
	g.checkExact(t)
}
