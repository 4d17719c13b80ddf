package joiner

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

func startService(t *testing.T, rel tuple.Relation) (*broker.Broker, *Service) {
	t.Helper()
	b := broker.New(nil)
	t.Cleanup(func() { b.Close() })
	for _, r := range []tuple.Relation{tuple.R, tuple.S} {
		if err := b.DeclareExchange(topo.StoreExchange(r), broker.Topic); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareExchange(topo.JoinExchange(r), broker.Topic); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeclareExchange(topo.ResultExchange, broker.Topic); err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(Config{ID: 0, Rel: rel, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(core, b)
	svc.AddRouter(1)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return b, svc
}

func publishEnv(t *testing.T, b *broker.Broker, exchange, key string, env protocol.Envelope) {
	t.Helper()
	if err := b.Publish(exchange, key, nil, env.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func TestServiceEndToEndJoin(t *testing.T) {
	b, svc := startService(t, tuple.R)
	// Result sink.
	if err := b.DeclareQueue("sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sink", topo.ResultExchange, topo.ResultKey); err != nil {
		t.Fatal(err)
	}
	sink, err := b.Consume("sink", 16, true)
	if err != nil {
		t.Fatal(err)
	}

	storeEx := topo.StoreExchange(tuple.R)
	joinEx := topo.JoinExchange(tuple.S)
	r := tuple.New(tuple.R, 1, 1000, tuple.Int(7))
	s := tuple.New(tuple.S, 2, 1001, tuple.Int(7))
	publishEnv(t, b, storeEx, topo.MemberKey(0), storeEnv(1, r))
	publishEnv(t, b, joinEx, topo.MemberKey(0), joinEnv(2, s))
	punct := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: 2}
	publishEnv(t, b, storeEx, topo.PunctKey, punct)
	publishEnv(t, b, joinEx, topo.PunctKey, punct)

	select {
	case d := <-sink.Deliveries():
		l, rr, err := tuple.UnmarshalPair(d.Body)
		if err != nil {
			t.Fatal(err)
		}
		if l.Seq != 1 || rr.Seq != 2 {
			t.Errorf("result pair = %v, %v", l, rr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result published")
	}
	if st := svc.Stats(); st.Results != 1 || st.Stored != 1 {
		t.Errorf("stats = %+v", st)
	}
	if svc.MemBytes() <= 0 {
		t.Error("MemBytes should be positive with a stored tuple")
	}
	if svc.ID() != 0 || svc.Rel() != tuple.R {
		t.Error("accessors wrong")
	}
}

func TestServicePoisonMessagesIgnored(t *testing.T) {
	b, svc := startService(t, tuple.R)
	if err := b.Publish(topo.StoreExchange(tuple.R), topo.MemberKey(0), nil, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.MemberKey(0),
		storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(1))))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().Received == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("joiner wedged on poison message")
}

func TestServiceLifecycle(t *testing.T) {
	b, svc := startService(t, tuple.S)
	if err := svc.Start(); err == nil {
		t.Error("double start accepted")
	}
	storeQ, joinQ := svc.Queues()
	if storeQ != "Sstore.exchange.q.0" || joinQ != "Rjoin.exchange.q.0" {
		t.Errorf("queues = %s, %s", storeQ, joinQ)
	}
	svc.Stop()
	svc.Stop() // idempotent
	// Queues survive Stop (restart possible)...
	if _, err := b.QueueStats(storeQ); err != nil {
		t.Errorf("store queue gone after Stop: %v", err)
	}
	// ...but Retire deletes them.
	svc2 := NewService(mustCore(t, tuple.S, 1), b)
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	sq2, jq2 := svc2.Queues()
	svc2.Retire()
	if _, err := b.QueueStats(sq2); err == nil {
		t.Error("store queue survived Retire")
	}
	if _, err := b.QueueStats(jq2); err == nil {
		t.Error("join queue survived Retire")
	}
}

func TestServiceFlushPublishesBufferedResults(t *testing.T) {
	b, svc := startService(t, tuple.R)
	if err := b.DeclareQueue("sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sink", topo.ResultExchange, topo.ResultKey); err != nil {
		t.Fatal(err)
	}
	sink, err := b.Consume("sink", 16, true)
	if err != nil {
		t.Fatal(err)
	}
	// Tuples without punctuation stay buffered; Flush releases them.
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.MemberKey(0),
		storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))))
	publishEnv(t, b, topo.JoinExchange(tuple.S), topo.MemberKey(0),
		joinEnv(2, tuple.New(tuple.S, 2, 0, tuple.Int(7))))
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Pending != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want 2", svc.Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}
	svc.Flush()
	select {
	case <-sink.Deliveries():
	case <-time.After(5 * time.Second):
		t.Fatal("flush published nothing")
	}
}

func TestServiceRemoveRouter(t *testing.T) {
	b, svc := startService(t, tuple.R)
	svc.AddRouter(2) // never punctuates
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.MemberKey(0),
		storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))))
	punct := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: 5}
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.PunctKey, punct)
	publishEnv(t, b, topo.JoinExchange(tuple.S), topo.PunctKey, punct)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Pending != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want 1 (gated by router 2)", svc.Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}
	svc.RemoveRouter(2)
	deadline = time.Now().Add(5 * time.Second)
	for svc.Stats().Stored != 1 {
		if time.Now().After(deadline) {
			t.Fatal("RemoveRouter did not unblock processing")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustCore(t *testing.T, rel tuple.Relation, id int32) *Core {
	t.Helper()
	c, err := NewCore(Config{ID: id, Rel: rel, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// flakyResults is a client without the batch capability whose result
// publishes fail while down is set, after letting `allow` more through.
type flakyResults struct {
	broker.Client
	mu    sync.Mutex
	down  bool
	allow int
}

func (f *flakyResults) set(down bool, allow int) {
	f.mu.Lock()
	f.down, f.allow = down, allow
	f.mu.Unlock()
}

func (f *flakyResults) Publish(exchange, key string, h map[string]string, body []byte) error {
	if exchange == topo.ResultExchange {
		f.mu.Lock()
		fail := f.down && f.allow == 0
		if f.down && f.allow > 0 {
			f.allow--
		}
		f.mu.Unlock()
		if fail {
			return errors.New("injected result publish failure")
		}
	}
	return f.Client.Publish(exchange, key, h, body)
}

// handDriven is a result-publishing service over client whose results
// land on b's "sink" queue, driven by hand instead of by consume loops:
// handle runs one batch under the lock a consume loop would hold.
func handDriven(t *testing.T, b *broker.Broker, client broker.Client) (svc *Service, handle func(protocol.Source, ...protocol.Envelope)) {
	t.Helper()
	return handDrivenCore(t, b, client, mustCore(t, tuple.R, 0))
}

// handDrivenCore is handDriven around a given core.
func handDrivenCore(t *testing.T, b *broker.Broker, client broker.Client, core *Core) (svc *Service, handle func(protocol.Source, ...protocol.Envelope)) {
	t.Helper()
	if err := topo.Declare(client); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sink", topo.ResultExchange, topo.ResultKey); err != nil {
		t.Fatal(err)
	}
	svc = NewService(core, client)
	svc.AddRouter(1)
	return svc, func(src protocol.Source, envs ...protocol.Envelope) {
		svc.mu.Lock()
		svc.core.HandleBatch(envs, src, svc.emit)
		svc.publishLocked()
		svc.mu.Unlock()
	}
}

func punctEnv(c uint64) protocol.Envelope {
	return protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: c}
}

// sinkFrames reads result frames off the sink queue until it holds
// `pairs` result pairs, and returns the frames and the pairs' tuples
// (left, right, left, right, ...) in arrival order.
func sinkFrames(t *testing.T, b *broker.Broker, pairs int) (frames [][]byte, tuples []*tuple.Tuple) {
	t.Helper()
	sink, err := b.Consume("sink", 16, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Cancel()
	var dec tuple.Decoder
	for len(tuples) < 2*pairs {
		select {
		case d := <-sink.Deliveries():
			if tuples, err = dec.AppendPairs(tuples, d.Body); err != nil {
				t.Fatalf("frame %d: %v", len(frames), err)
			}
			frames = append(frames, d.Body)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d results arrived", len(tuples)/2, pairs)
		}
	}
	return frames, tuples
}

// TestServiceResultBatchFailureKeepsOrder: a batch's results go out as
// result frames in one PublishBatch; when it fails part-way the
// published frames stay published, the rest join the retry backlog,
// later frames queue up behind the backlog instead of overtaking it,
// and once the broker is back every pair arrives exactly once in emit
// order.
func TestServiceResultBatchFailureKeepsOrder(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	client := &flakyResults{Client: b}
	svc, handle := handDriven(t, b, client)
	// One stored R tuple; every S probe of the key yields one result.
	// A frame writes the stored tuple's 6 KiB attribute once and each
	// probe's 12 KiB one per pair, so it seals after three pairs (18,
	// 30, 42 KiB).
	big := strings.Repeat("x", 6<<10)
	handle(protocol.SourceStore, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7), tuple.String(big))), punctEnv(1))
	handle(protocol.SourceJoin, punctEnv(1))
	probe := func(counter, seq uint64) protocol.Envelope {
		return joinEnv(counter, tuple.New(tuple.S, seq, 0, tuple.Int(7), tuple.String(big+big)))
	}
	published := func() int64 {
		st, err := b.QueueStats("sink")
		if err != nil {
			t.Fatal(err)
		}
		return st.Published
	}

	// Batch 1: nine results in three frames; the broker dies after the
	// first frame.
	client.set(true, 1)
	handle(protocol.SourceStore, punctEnv(20))
	var batch []protocol.Envelope
	for i := uint64(0); i < 9; i++ {
		batch = append(batch, probe(2+i, 102+i))
	}
	handle(protocol.SourceJoin, append(batch, punctEnv(20))...)
	if got := svc.RetryBacklog(); got != 2 {
		t.Fatalf("backlog after the failed batch = %d frames, want 2", got)
	}
	if got := published(); got != 1 {
		t.Fatalf("sink holds %d frames after the failed batch, want the published first one", got)
	}
	// Batch 2 while still down: its frame must queue behind the backlog.
	handle(protocol.SourceStore, punctEnv(30))
	handle(protocol.SourceJoin, probe(21, 121), probe(22, 122), punctEnv(30))
	if got := svc.RetryBacklog(); got != 3 {
		t.Fatalf("backlog while down = %d frames, want 3", got)
	}
	if got := published(); got != 1 {
		t.Fatalf("sink holds %d frames while down, want 1", got)
	}
	// Batch 3 after recovery: backlog first, then the fresh frame.
	client.set(false, 0)
	handle(protocol.SourceStore, punctEnv(40))
	handle(protocol.SourceJoin, probe(31, 131), punctEnv(40))
	if got := svc.RetryBacklog(); got != 0 {
		t.Fatalf("backlog after recovery = %d frames, want 0", got)
	}

	want := []uint64{102, 103, 104, 105, 106, 107, 108, 109, 110, 121, 122, 131}
	frames, tuples := sinkFrames(t, b, len(want))
	for i, w := range want {
		if s := tuples[2*i+1]; s.Seq != w {
			t.Fatalf("result %d pairs S seq %d, want %d (emit order)", i, s.Seq, w)
		}
	}
	if len(tuples) != 2*len(want) || len(frames) != 5 || published() != 5 {
		t.Fatalf("sink saw %d pairs in %d frames (%d published), want %d pairs in 5 frames exactly once each",
			len(tuples)/2, len(frames), published(), len(want))
	}
}

// TestServiceHotKeyBatchSpansFrames: a probe matching a hot key's whole
// window emits more than maxResultFrame bytes of results; they go out as
// several frames, each at most the bound plus one pair, and every pair
// arrives once.
func TestServiceHotKeyBatchSpansFrames(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	_, handle := handDriven(t, b, b)
	// The probe is written once per frame, so a pair adds its stored
	// tuple and a back-reference: 4 000 of them still span four frames.
	const stored = 4000
	var batch []protocol.Envelope
	for i := uint64(1); i <= stored; i++ {
		batch = append(batch, storeEnv(i, tuple.New(tuple.R, i, 0, tuple.Int(7))))
	}
	handle(protocol.SourceStore, append(batch, punctEnv(stored+10))...)
	probe := tuple.New(tuple.S, 1<<20, 0, tuple.Int(7))
	handle(protocol.SourceJoin, joinEnv(stored+1, probe), punctEnv(stored+10))

	pairLen := len(tuple.AppendPair(nil, tuple.New(tuple.R, stored, 0, tuple.Int(7)), probe))
	if stored*pairLen <= 2*maxResultFrame {
		t.Fatalf("%d results of %d bytes do not span three frames", stored, pairLen)
	}
	frames, tuples := sinkFrames(t, b, stored)
	if len(frames) < 3 {
		t.Fatalf("%d bytes of results went out in %d frames, want several", stored*pairLen, len(frames))
	}
	seen := map[uint64]bool{}
	for i := 0; i < len(tuples); i += 2 {
		seen[tuples[i].Seq] = true
	}
	if len(tuples) != 2*stored || len(seen) != stored {
		t.Fatalf("got %d pairs (%d distinct), want %d", len(tuples)/2, len(seen), stored)
	}
	for i, f := range frames {
		if len(f) > maxResultFrame+pairLen {
			t.Errorf("frame %d is %d bytes, above the %d-byte bound plus one %d-byte pair", i, len(f), maxResultFrame, pairLen)
		}
	}
}

// TestEmitAndPublishAllocations pins the joiner's result path: emitting
// 512 results and publishing them costs allocations per result frame
// (one body copy; these 512 pairs fit one frame), not per result pair
// (make perf-pins).
func TestEmitAndPublishAllocations(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	svc, _ := handDriven(t, b, b)
	// Results route nowhere, so nothing piles up across runs.
	if err := b.DeleteQueue("sink"); err != nil {
		t.Fatal(err)
	}
	results := make([]tuple.JoinResult, 512)
	for i := range results {
		results[i] = tuple.NewJoinResult(
			tuple.New(tuple.R, uint64(i), int64(i), tuple.Int(int64(i))),
			tuple.New(tuple.S, uint64(i+1000), int64(i), tuple.Int(int64(i))))
	}
	run := func() {
		svc.mu.Lock()
		for _, jr := range results {
			svc.emit(jr)
		}
		svc.publishLocked()
		svc.mu.Unlock()
	}
	run()
	if got := testing.AllocsPerRun(100, run); got > 2 {
		t.Errorf("emitting and publishing %d results allocates %v times, want at most 2 (per frame, not per pair)", len(results), got)
	}
}

// TestServiceZipfFramesShareTuples counts what back-references save on
// a fixed skewed run: 40 000 tuples, keys zipf(1.1) over 100 000, 50
// per millisecond against a 16 ms window, through one R joiner in
// batches of 256 stores and 256 probes. Every pair arrives once, and
// the frames are shorter than the plain encoding of the same pairs
// because a probe and its hot partners are written once per frame.
// Run with -v for the exact counts.
func TestServiceZipfFramesShareTuples(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	core, err := NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: window.Sliding{Span: 16 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	svc, handle := handDrivenCore(t, b, b, core)
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 99_999)
	const tuples, perBatch = 40_000, 512
	var stores, probes []protocol.Envelope
	for i := uint64(1); i <= tuples; i++ {
		tp := tuple.New(tuple.Relation(i%2), i, int64(i/50), tuple.Int(int64(zipf.Uint64())))
		if tp.Rel == tuple.R {
			stores = append(stores, storeEnv(i, tp))
		} else {
			probes = append(probes, joinEnv(i, tp))
		}
		if i%perBatch == 0 || i == tuples {
			handle(protocol.SourceStore, append(stores, punctEnv(i))...)
			handle(protocol.SourceJoin, append(probes, punctEnv(i))...)
			stores, probes = stores[:0], probes[:0]
		}
	}
	pairs := int(svc.Stats().Results)
	frames, got := sinkFrames(t, b, pairs)
	if len(got) != 2*pairs {
		t.Fatalf("sink got %d pairs, the joiner emitted %d", len(got)/2, pairs)
	}
	seen := map[[2]uint64]bool{}
	plainBytes, frameBytes, encoded := 0, 0, 0
	var dec tuple.Decoder
	for _, f := range frames {
		frameBytes += len(f)
		ts, err := dec.AppendPairs(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[*tuple.Tuple]bool{}
		for i := 0; i < len(ts); i += 2 {
			plainBytes += len(tuple.AppendPair(nil, ts[i], ts[i+1]))
			distinct[ts[i]], distinct[ts[i+1]] = true, true
			seen[[2]uint64{ts[i].Seq, ts[i+1].Seq}] = true
		}
		encoded += len(distinct)
	}
	if len(seen) != pairs {
		t.Fatalf("%d distinct pairs of %d", len(seen), pairs)
	}
	if frameBytes >= plainBytes {
		t.Fatalf("frames hold %d bytes, no fewer than the plain encoding's %d", frameBytes, plainBytes)
	}
	t.Logf("%d pairs in %d frames: %.3f tuple encodings per pair (plain 2), %.2f result bytes per pair (plain %.2f)",
		pairs, len(frames), float64(encoded)/float64(pairs), float64(frameBytes)/float64(pairs), float64(plainBytes)/float64(pairs))
}
