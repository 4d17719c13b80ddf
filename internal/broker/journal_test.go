package broker

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// durableBroker opens a durable broker over dir; the caller reopens by
// calling it again after Close.
func durableBroker(t *testing.T, dir string) *Broker {
	t.Helper()
	b, err := NewDurable(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func declareDurable(t *testing.T, b *Broker, ex, q string) {
	t.Helper()
	if err := b.DeclareExchange(ex, Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue(q, QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(q, ex, "#"); err != nil {
		t.Fatal(err)
	}
}

func TestDurableMessagesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	for i := 0; i < 5; i++ {
		if err := b.Publish("ex", "k", map[string]string{"n": string(rune('0' + i))}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := durableBroker(t, dir)
	defer b2.Close()
	st, err := b2.QueueStats("q")
	if err != nil {
		t.Fatalf("queue not recovered: %v", err)
	}
	if st.Ready != 5 {
		t.Fatalf("recovered ready = %d, want 5", st.Ready)
	}
	// Order and contents survive; the binding does too (publish routes).
	c, err := b2.Consume("q", 8, false)
	if err != nil {
		t.Fatal(err)
	}
	ds := drain(t, c, 5, 2*time.Second)
	for i, d := range ds {
		if d.Body[0] != byte(i) || d.RoutingKey != "k" || d.Headers["n"] != string(rune('0'+i)) {
			t.Fatalf("recovered delivery %d = %+v", i, d)
		}
		c.Ack(d.Tag)
	}
	if err := b2.Publish("ex", "x", nil, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if st, _ := b2.QueueStats("q"); st.Ready != 1 {
		t.Errorf("binding not recovered: ready = %d", st.Ready)
	}
}

func TestDurableSettledMessagesDoNotReappear(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	for i := 0; i < 4; i++ {
		b.Publish("ex", "", nil, []byte{byte(i)})
	}
	c, _ := b.Consume("q", 8, false)
	ds := drain(t, c, 4, 2*time.Second)
	// Ack out of order: 1 and 3. Identity-based settling must drop
	// exactly those two across the restart.
	c.Ack(ds[1].Tag)
	c.Ack(ds[3].Tag)
	b.Close()

	b2 := durableBroker(t, dir)
	defer b2.Close()
	c2, _ := b2.Consume("q", 8, false)
	ds2 := drain(t, c2, 2, 2*time.Second)
	got := []byte{ds2[0].Body[0], ds2[1].Body[0]}
	if got[0] != 0 || got[1] != 2 {
		t.Fatalf("recovered %v, want [0 2]", got)
	}
	if st, _ := b2.QueueStats("q"); st.Ready != 0 {
		t.Errorf("extra messages recovered: %+v", st)
	}
}

func TestDurableAutoAckSettlesImmediately(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	b.Publish("ex", "", nil, []byte("m"))
	c, _ := b.Consume("q", 1, true)
	drain(t, c, 1, 2*time.Second)
	b.Close()

	b2 := durableBroker(t, dir)
	defer b2.Close()
	if st, _ := b2.QueueStats("q"); st.Ready != 0 {
		t.Errorf("auto-acked message reappeared: %+v", st)
	}
}

func TestDurableNonDurableQueueNotRecovered(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	b.DeclareExchange("ex", Fanout)
	b.DeclareQueue("transient", QueueOptions{})
	b.Bind("transient", "ex", "#")
	b.Publish("ex", "", nil, []byte("m"))
	b.Close()

	b2 := durableBroker(t, dir)
	defer b2.Close()
	if _, err := b2.QueueStats("transient"); !errors.Is(err, ErrNoQueue) {
		t.Errorf("transient queue recovered: %v", err)
	}
	// The exchange is durable state regardless.
	if err := b2.DeclareExchange("ex", Fanout); err != nil {
		t.Errorf("exchange not recovered: %v", err)
	}
}

func TestDurableDeleteQueueForgotten(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	b.Publish("ex", "", nil, []byte("m"))
	if err := b.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	b.Close()

	b2 := durableBroker(t, dir)
	defer b2.Close()
	if _, err := b2.QueueStats("q"); !errors.Is(err, ErrNoQueue) {
		t.Errorf("deleted queue recovered: %v", err)
	}
}

func TestDurableRejectsDurableAutoDelete(t *testing.T) {
	b := durableBroker(t, t.TempDir())
	defer b.Close()
	if err := b.DeclareQueue("x", QueueOptions{Durable: true, AutoDelete: true}); err == nil {
		t.Error("durable auto-delete queue accepted")
	}
}

// lastSegment returns the path of the newest segment file under the
// given log directory.
func lastSegment(t *testing.T, logDir string) string {
	t.Helper()
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".seg" && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatalf("no segment files in %s", logDir)
	}
	return filepath.Join(logDir, last)
}

// journalSize sums the bytes of every journal file under dir.
func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestDurableToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	b.Publish("ex", "", nil, []byte("keep"))
	b.Publish("ex", "", nil, []byte("torn"))
	b.Close()
	// Simulate a crash mid-append: chop bytes off the tail of the
	// queue's newest segment, tearing the final enqueue record.
	path := lastSegment(t, filepath.Join(dir, "topics", "q"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	b2 := durableBroker(t, dir)
	defer b2.Close()
	// The torn record (the second publish) is lost; everything before
	// it — topology and the first message — survives.
	if err := b2.DeclareQueue("q", QueueOptions{Durable: true}); err != nil {
		t.Errorf("queue lost after truncation: %v", err)
	}
	c, err := b2.Consume("q", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	d := drain(t, c, 1, 2*time.Second)[0]
	if string(d.Body) != "keep" {
		t.Errorf("recovered body %q, want %q", d.Body, "keep")
	}
	if st, _ := b2.QueueStats("q"); st.Ready != 0 {
		t.Errorf("torn record resurrected: %+v", st)
	}
}

// TestDurableTornTailCRCMismatch corrupts the tail record in place
// (flipped payload byte, plausible length) rather than shortening the
// file: the CRC frame must catch it and end replay cleanly.
func TestDurableTornTailCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	b.Publish("ex", "", nil, []byte("keep"))
	b.Publish("ex", "", nil, []byte("torn"))
	b.Close()
	path := lastSegment(t, filepath.Join(dir, "topics", "q"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b2 := durableBroker(t, dir)
	defer b2.Close()
	st, err := b2.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 1 {
		t.Errorf("ready = %d after corrupt tail, want 1", st.Ready)
	}
}

func TestDurableCompactionShrinksJournal(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	c, _ := b.Consume("q", 64, false)
	for i := 0; i < 500; i++ {
		b.Publish("ex", "", nil, make([]byte, 128))
	}
	for i := 0; i < 500; i++ {
		d := <-c.Deliveries()
		c.Ack(d.Tag)
	}
	b.Close()
	before := journalSize(t, dir)

	b2 := durableBroker(t, dir)
	b2.Close()
	if after := journalSize(t, dir); after >= before/10 {
		t.Errorf("compaction ineffective: %d -> %d bytes", before, after)
	}
}

func TestDurableRestartCycleStress(t *testing.T) {
	// Publish/consume across several restarts; nothing unacked may be
	// lost, nothing acked may reappear.
	dir := t.TempDir()
	published, consumed := 0, 0
	for cycle := 0; cycle < 4; cycle++ {
		b := durableBroker(t, dir)
		if cycle == 0 {
			declareDurable(t, b, "ex", "q")
		}
		for i := 0; i < 10; i++ {
			if err := b.Publish("ex", "", nil, []byte{byte(published)}); err != nil {
				t.Fatal(err)
			}
			published++
		}
		// Consume roughly half of the backlog.
		c, _ := b.Consume("q", 4, false)
		backlog := published - consumed
		for i := 0; i < backlog/2; i++ {
			d := <-c.Deliveries()
			c.Ack(d.Tag)
			consumed++
		}
		b.Close()
	}
	b := durableBroker(t, dir)
	defer b.Close()
	st, _ := b.QueueStats("q")
	if st.Ready != published-consumed {
		t.Errorf("recovered %d messages, want %d", st.Ready, published-consumed)
	}
}

func TestDurableBrokerStillWorksAsNormalBroker(t *testing.T) {
	// The full pub/sub surface on a durable broker: fanout across
	// durable and transient queues.
	b := durableBroker(t, t.TempDir())
	defer b.Close()
	b.DeclareExchange("ex", Fanout)
	b.DeclareQueue("dur", QueueOptions{Durable: true})
	b.DeclareQueue("tmp", QueueOptions{})
	b.Bind("dur", "ex", "#")
	b.Bind("tmp", "ex", "#")
	b.Publish("ex", "", nil, []byte("m"))
	for _, q := range []string{"dur", "tmp"} {
		if st, _ := b.QueueStats(q); st.Ready != 1 {
			t.Errorf("queue %s ready = %d", q, st.Ready)
		}
	}
}

// TestDurableRedeliveryAfterCrash is the crash-consumer story: a
// consumer takes deliveries but dies before acking some of them. After
// a broker restart every unacked message must come back (at-least-once)
// exactly once, alongside the never-delivered tail, while the acked
// prefix stays settled.
func TestDurableRedeliveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	const n = 12
	for i := 0; i < n; i++ {
		if err := b.Publish("ex", "", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Consume("q", n, false)
	if err != nil {
		t.Fatal(err)
	}
	ds := drain(t, c, 8, 2*time.Second)
	// Ack the first four; the next four were delivered but the consumer
	// "crashes" (broker closes) holding them unacked.
	for i := 0; i < 4; i++ {
		if err := c.Ack(ds[i].Tag); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := durableBroker(t, dir)
	defer b2.Close()
	st, err := b2.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != n-4 {
		t.Fatalf("recovered ready = %d, want %d", st.Ready, n-4)
	}
	c2, err := b2.Consume("q", n, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[byte]int{}
	for _, d := range drain(t, c2, n-4, 2*time.Second) {
		seen[d.Body[0]]++
		if err := c2.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < n; i++ {
		want := 1
		if i < 4 {
			want = 0 // acked before the crash; must not reappear
		}
		if seen[i] != want {
			t.Errorf("message %d recovered %d times, want %d", i, seen[i], want)
		}
	}
}

// TestDurableMaxRedeliverSurvivesRestart: the redelivery bound is part
// of the queue's durable declaration, so the dead-letter protection
// still holds on the recovered queue.
func TestDurableMaxRedeliverSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	if err := b.DeclareExchange("ex", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{Durable: true, MaxRedeliver: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "#"); err != nil {
		t.Fatal(err)
	}
	b.Close()

	b2 := durableBroker(t, dir)
	defer b2.Close()
	// A passive redeclare with the same options must match the
	// recovered queue exactly.
	if err := b2.DeclareQueue("q", QueueOptions{Durable: true, MaxRedeliver: 1}); err != nil {
		t.Fatalf("recovered queue lost its MaxRedeliver: %v", err)
	}
	if err := b2.Publish("ex", "", nil, []byte("m")); err != nil {
		t.Fatal(err)
	}
	c, err := b2.Consume("q", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d := drain(t, c, 1, 2*time.Second)[0]
		if err := c.Nack(d.Tag, true); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b2.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadLettered != 1 {
		t.Errorf("DeadLettered = %d, want 1 (bound not recovered)", st.DeadLettered)
	}
}
