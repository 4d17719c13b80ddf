package broker

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refQueue is the reference the model test holds the broker's queue
// against: what AMQP-style manual-ack delivery means, written the
// obvious way over slices — no ring, no window, no dispatcher.
type refQueue struct {
	ready        []refMsg      // head first
	unacked      []refDelivery // the live consumer's, in delivery order
	dead         []int         // ids dead-lettered, in order
	maxRedeliver int
}

type refMsg struct{ id, redeliveries int }

type refDelivery struct {
	refMsg
	tag uint64 // learned when the broker's delivery is received
}

func (m *refQueue) backlog() int { return len(m.ready) + len(m.unacked) }

// deliver moves ready messages to the consumer while its prefetch
// window has room, and returns them.
func (m *refQueue) deliver(prefetch int) []refMsg {
	n := min(len(m.ready), prefetch-len(m.unacked))
	out := append([]refMsg(nil), m.ready[:n]...)
	m.ready = m.ready[n:]
	for _, msg := range out {
		m.unacked = append(m.unacked, refDelivery{refMsg: msg})
	}
	return out
}

func (m *refQueue) take(i int) refDelivery {
	d := m.unacked[i]
	m.unacked = append(m.unacked[:i:i], m.unacked[i+1:]...)
	return d
}

func (m *refQueue) requeue(msg refMsg) { m.ready = append([]refMsg{msg}, m.ready...) }

func (m *refQueue) nack(i int, requeue bool) {
	msg := m.take(i).refMsg
	if msg.redeliveries++; !requeue || msg.redeliveries > m.maxRedeliver {
		m.dead = append(m.dead, msg.id)
		return
	}
	m.requeue(msg)
}

// cancel returns the whole window to the queue head in delivery order,
// each message marked redelivered (and never dead-lettered here).
func (m *refQueue) cancel() {
	for i := len(m.unacked) - 1; i >= 0; i-- {
		msg := m.unacked[i].refMsg
		msg.redeliveries++
		m.requeue(msg)
	}
	m.unacked = nil
}

func idBody(id int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(id)) }

// TestQueueMatchesReferenceModel drives one bounded queue through seeded
// random interleavings of publish, PublishBatch, ack, AckBatch, nack
// with and without requeue, cancel and re-consume, and after every step
// holds the broker to the reference: the consumer receives exactly the
// reference's deliveries in the reference's order (per-consumer FIFO,
// requeues at the head), a message arrives twice only flagged
// Redelivered, ready and unacked counts agree (so nothing is lost and
// MaxLen, which counts both, is never exceeded), and messages nacked
// past MaxRedeliver land in the dead-letter queue.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runQueueModel(t, seed, 600) })
	}
}

func runQueueModel(t *testing.T, seed int64, steps int) {
	const (
		maxLen       = 24
		maxRedeliver = 3
	)
	rng := rand.New(rand.NewSource(seed))
	prefetch := 1 + rng.Intn(8)
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{MaxLen: maxLen, MaxRedeliver: maxRedeliver})
	model := &refQueue{maxRedeliver: maxRedeliver}
	var cons Consumer
	nextID := 0
	seen := map[int]int{} // id → deliveries observed

	// sync receives what the reference says the consumer is owed and
	// checks the queue's counters against the reference.
	sync := func(step int, op string) {
		t.Helper()
		if cons != nil {
			for _, want := range model.deliver(prefetch) {
				select {
				case d, ok := <-cons.Deliveries():
					if !ok {
						t.Fatalf("step %d (%s): consumer closed", step, op)
					}
					id := int(binary.LittleEndian.Uint32(d.Body))
					if id != want.id || d.Redelivered != (want.redeliveries > 0) {
						t.Fatalf("step %d (%s): got id %d redelivered=%v, reference says id %d redeliveries=%d",
							step, op, id, d.Redelivered, want.id, want.redeliveries)
					}
					if seen[id]++; seen[id] > 1 && !d.Redelivered {
						t.Fatalf("step %d (%s): id %d delivered again without the Redelivered flag", step, op, id)
					}
					for i := range model.unacked {
						if model.unacked[i].id == id {
							model.unacked[i].tag = d.Tag
						}
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("step %d (%s): no delivery; reference expects id %d", step, op, want.id)
				}
			}
			select {
			case d := <-cons.Deliveries():
				t.Fatalf("step %d (%s): unexpected delivery %v beyond the prefetch window", step, op, d.Body)
			default:
			}
		}
		st, err := b.QueueStats("q")
		mustNil(t, err)
		if st.Ready != len(model.ready) || st.Unacked != len(model.unacked) {
			t.Fatalf("step %d (%s): ready/unacked = %d/%d, reference says %d/%d",
				step, op, st.Ready, st.Unacked, len(model.ready), len(model.unacked))
		}
		if st.Ready+st.Unacked > maxLen {
			t.Fatalf("step %d (%s): backlog %d exceeds MaxLen %d", step, op, st.Ready+st.Unacked, maxLen)
		}
	}

	for step := 0; step < steps; step++ {
		op := ""
		switch r := rng.Intn(100); {
		case r < 25:
			op = "publish"
			if model.backlog() == maxLen {
				continue // would block: the bound is the reference's too
			}
			mustNil(t, b.Publish("ex", "k", nil, idBody(nextID)))
			model.ready = append(model.ready, refMsg{id: nextID})
			nextID++
		case r < 40:
			op = "publish-batch"
			n := min(1+rng.Intn(6), maxLen-model.backlog())
			pubs := make([]Publication, n)
			for i := range pubs {
				pubs[i] = Publication{Exchange: "ex", RoutingKey: "k", Body: idBody(nextID)}
				model.ready = append(model.ready, refMsg{id: nextID})
				nextID++
			}
			if got, err := b.PublishBatch(context.Background(), pubs); got != n || err != nil {
				t.Fatalf("step %d: PublishBatch = %d, %v; want %d", step, got, err, n)
			}
		case r < 55 && cons != nil && len(model.unacked) > 0:
			op = "ack"
			d := model.take(rng.Intn(len(model.unacked)))
			mustNil(t, cons.Ack(d.tag))
		case r < 65 && cons != nil && len(model.unacked) > 0:
			op = "ack-batch"
			var tags []uint64
			for i := len(model.unacked) - 1; i >= 0; i-- {
				if rng.Intn(2) == 0 {
					tags = append(tags, model.take(i).tag)
				}
			}
			rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
			mustNil(t, cons.(BatchAcker).AckBatch(tags))
		case r < 80 && cons != nil && len(model.unacked) > 0:
			op = "nack-requeue"
			i := rng.Intn(len(model.unacked))
			tag := model.unacked[i].tag
			model.nack(i, true)
			mustNil(t, cons.Nack(tag, true))
		case r < 85 && cons != nil && len(model.unacked) > 0:
			op = "nack-drop"
			i := rng.Intn(len(model.unacked))
			tag := model.unacked[i].tag
			model.nack(i, false)
			mustNil(t, cons.Nack(tag, false))
		case r < 92 && cons != nil:
			op = "cancel"
			mustNil(t, cons.Cancel())
			model.cancel()
			cons = nil
		case cons == nil:
			op = "consume"
			var err error
			cons, err = b.Consume("q", prefetch, false)
			mustNil(t, err)
		default:
			continue
		}
		sync(step, op)
	}

	// No loss: every id is ready, unacked or dead in the reference (by
	// construction) and the broker agreed with it at every step; the dead
	// queue must hold exactly the reference's dead letters, in order.
	if cons != nil {
		mustNil(t, cons.Cancel())
	}
	if len(model.dead) == 0 {
		return
	}
	dc, err := b.Consume(DeadQueue, len(model.dead), true)
	mustNil(t, err)
	for i, d := range drain(t, dc, len(model.dead), 5*time.Second) {
		if id := int(binary.LittleEndian.Uint32(d.Body)); id != model.dead[i] || d.Headers["x-dead-from"] != "q" {
			t.Fatalf("dead letter %d: id %d from %q, reference says id %d", i, id, d.Headers["x-dead-from"], model.dead[i])
		}
	}
	if st, _ := b.QueueStats(DeadQueue); st.Published != int64(len(model.dead)) {
		t.Fatalf("dead queue saw %d messages, reference says %d", st.Published, len(model.dead))
	}
}
