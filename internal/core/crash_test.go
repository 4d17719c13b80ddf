package core

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/faults"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/wire"
)

// ingestRetry publishes t into the engine, retrying on transient
// failure (injected drop, partition, broker outage) until the deadline.
// This is the contract a real stream source keeps under at-least-once:
// retry until acknowledged, and let the pipeline's dedup absorb the
// duplicates a retried-but-actually-delivered publish creates.
func ingestRetry(t *testing.T, e *Engine, tp *tuple.Tuple, deadline time.Time) {
	t.Helper()
	for {
		err := e.Ingest(tp)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest of seq %d did not succeed before deadline: %v", tp.Seq, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEngineExactlyOnceUnderFaultsAndCrashes is the crash-safety chaos
// test: the broker fabric drops, duplicates, delays and (on the entry
// exchange) reorders messages, the network partitions twice, and a
// joiner and a router are crash-restarted mid-run — yet every join
// result must be produced exactly once. The equi predicate keeps
// routing deterministic across redeliveries (hash routing sends a
// retried tuple to the same member, where the idempotency filter can
// see the first attempt); random routing would re-roll the member and
// turn retries into cross-member duplicates no per-core filter catches.
func TestEngineExactlyOnceUnderFaultsAndCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			runCrashChaos(t, seed)
		})
	}
}

func runCrashChaos(t *testing.T, seed int64) {
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
			// Reordering is only sound before stamping (see faults doc).
			topo.EntryExchange: {Drop: 0.03, Dup: 0.03, Reorder: 0.05},
		},
	})

	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		Routers:   2,
		RJoiners:  2,
		SJoiners:  2,
		Broker:    f,
		Metrics:   reg,
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
		switch round {
		case 1:
			if err := e.CrashJoiner(tuple.R, rng.Intn(2), 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 2:
			f.Cut(50 * time.Millisecond)
		case 3:
			if err := e.CrashRouter(rng.Intn(2), 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Partition while a joiner is down: publishes fail, the
			// survivor's results queue up in its retry backlog.
			f.Cut(50 * time.Millisecond)
			if err := e.CrashJoiner(tuple.S, rng.Intn(2), 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Heal: stop injecting and flush held reordered messages, so no
	// publish is held outside the broker, then drain.
	f.Disable()
	if err := f.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "crash-chaos")

	// The run must actually have exercised the fault machinery, and the
	// recovery counters must show the suppression work happened.
	counter := func(name string) int64 {
		v, _ := reg.Value(name)
		return int64(v)
	}
	if counter("faults.drop") == 0 || counter("faults.dup") == 0 {
		t.Errorf("fault injection did not fire: drop=%d dup=%d",
			counter("faults.drop"), counter("faults.dup"))
	}
	var deduped int64
	snap := e.Snapshot()
	for _, m := range append(snap.RJoiners, snap.SJoiners...) {
		deduped += m.Deduped
	}
	if deduped == 0 {
		t.Error("no redelivered tuple was suppressed — dedup untested by this run")
	}
}

// TestEngineExactlyOnceAcrossBrokerRestart kills the broker daemon
// (server and durable broker) mid-join and restarts it on the same
// address and journal directory. The reconnecting wire client must
// resume on its own — re-dial, re-declare topology, re-attach
// consumers — and the join must come out exactly-once: unacked
// deliveries at the crash are requeued by the journal and suppressed by
// the joiner/sink dedup filters on redelivery.
func TestEngineExactlyOnceAcrossBrokerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("broker restart run")
	}
	dir := t.TempDir()
	b, err := broker.NewDurable(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.Connect(wire.Config{
		Addr:           addr.String(),
		Reconnect:      true,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Seed:           1,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  2,
		SJoiners:  2,
		Broker:    client,
	}, col)

	deadline := time.Now().Add(60 * time.Second)
	rs, ss, all := makeWorkload(120, 10, 5, 11)
	for i, tp := range all {
		if i == len(all)/2 {
			// Crash the broker daemon mid-stream: connections drop,
			// unacked deliveries are requeued into the journal.
			srv.Close()
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b2, err := broker.NewDurable(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer b2.Close()
			srv2 := wire.NewServer(b2, t.Logf)
			if _, err := listenRetry(srv2, addr.String()); err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
		}
		ingestRetry(t, e, tp, deadline)
	}
	// Recovery budget: the pipeline must settle — reconnected, replayed,
	// redelivered, deduped — well within the suite's patience.
	if err := e.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "broker-restart")
	if client.Generation() < 2 {
		t.Errorf("client generation %d: reconnect did not happen", client.Generation())
	}
}

// listenRetry rebinds addr, retrying briefly in case the closed
// listener's port is still in TIME_WAIT hand-back.
func listenRetry(srv *wire.Server, addrStr string) (net.Addr, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		addr, err := srv.Listen(addrStr)
		if err == nil {
			return addr, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, lastErr
}

// TestEngineExactlyOnceUnderMidBatchPublishFailures floods one router
// with a backlog — so its route loop stamps and publishes full batches —
// over a fabric that fails one fan-out or result publish in twenty. A
// failure in the middle of a batch acknowledges the tuples before it,
// requeues the failing tuple and everything after it for fresh stamps,
// and leaves stamp gaps behind; none of that may lose, duplicate or
// invent a join result.
func TestEngineExactlyOnceUnderMidBatchPublishFailures(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			inner := broker.New(nil)
			defer inner.Close()
			flaky := faults.Rule{Drop: 0.05}
			f := faults.Wrap(inner, faults.Config{
				Seed: seed, Metrics: reg,
				PerExchange: map[string]faults.Rule{
					topo.StoreExchange(tuple.R): flaky, topo.StoreExchange(tuple.S): flaky,
					topo.JoinExchange(tuple.R): flaky, topo.JoinExchange(tuple.S): flaky,
					topo.ResultExchange: flaky,
				},
			})
			pred := predicate.NewEqui(0, 0)
			col := newCollector()
			e := startEngine(t, Config{
				Predicate: pred, Window: time.Minute,
				RJoiners: 2, SJoiners: 2,
				Broker: f, Metrics: reg,
			}, col)
			rs, ss, all := makeWorkload(1500, 40, 1, seed)
			for _, tp := range all {
				if err := e.Ingest(tp); err != nil {
					t.Fatal(err) // the entry exchange is not faulted
				}
			}
			// Keep failing publishes until the router has worked through
			// the whole backlog, retries included.
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				st, err := inner.QueueStats(topo.EntryQueue)
				if err != nil {
					t.Fatal(err)
				}
				if st.Ready+st.Unacked == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("entry queue never drained: %+v", st)
				}
			}
			f.Disable()
			if err := e.Quiesce(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "mid-batch")
			for _, name := range []string{"faults.drop", "router.0.publish_errors", "router.0.redelivered"} {
				if v, _ := reg.Value(name); v == 0 {
					t.Errorf("%s = 0: the run never failed a batch", name)
				}
			}
		})
	}
}

// TestEngineExactlyOnceUnderCommitGateFailures fails the broker's
// commit gate — the replication quorum's vote on a publish — for one
// publish call in ten while a backlog is routed. A gate failure is the
// coarsest failure PublishBatch has: every message of the batch is
// already enqueued, yet the call reports zero published, so the router
// requeues and re-stamps up to a whole batch of tuples whose copies all
// went out, and a joiner republishes a batch of results. Every one of
// those duplicates has to die at the joiners' and the sink's dedup
// filters, which hold an entry far longer than any retry takes.
func TestEngineExactlyOnceUnderCommitGateFailures(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			b, err := broker.NewDurable(nil, t.TempDir()) // the gate guards journaled publishes
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var (
				gateMu  sync.Mutex
				rng     = rand.New(rand.NewSource(seed))
				failing = true
				failed  int
			)
			b.SetCommitGate(func(context.Context, uint64) error {
				gateMu.Lock()
				defer gateMu.Unlock()
				if failing && rng.Intn(10) == 0 {
					failed++
					return errors.New("injected: quorum lost")
				}
				return nil
			})
			pred := predicate.NewEqui(0, 0)
			col := newCollector()
			e := startEngine(t, Config{
				Predicate: pred, Window: time.Minute,
				RJoiners: 2, SJoiners: 2,
				Broker: b, Metrics: reg,
			}, col)
			rs, ss, all := makeWorkload(1500, 40, 1, seed)
			deadline := time.Now().Add(30 * time.Second)
			for _, tp := range all {
				ingestRetry(t, e, tp, deadline) // a failed ingest is enqueued too: a duplicate
			}
			for ; ; time.Sleep(time.Millisecond) {
				st, err := b.QueueStats(topo.EntryQueue)
				if err != nil {
					t.Fatal(err)
				}
				if st.Ready+st.Unacked == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("entry queue never drained: %+v", st)
				}
			}
			gateMu.Lock()
			failing = false
			gateMu.Unlock()
			if err := e.Quiesce(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "commit-gate")
			if failed == 0 {
				t.Error("the gate never failed a publish")
			}
			for _, name := range []string{"router.0.publish_errors", "router.0.redelivered"} {
				if v, _ := reg.Value(name); v == 0 {
					t.Errorf("%s = 0: the router never retried a batch", name)
				}
			}
		})
	}
}
