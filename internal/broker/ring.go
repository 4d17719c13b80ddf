package broker

// msgRing is a queue's ready list: a FIFO of messages that also takes
// requeues at its head, held by value in one power-of-two ring so that
// steady-state traffic allocates nothing.
type msgRing struct {
	buf  []Message
	head int // index of the oldest message
	n    int
}

// ringShrinkCap is the capacity above which a ring that runs empty
// gives its buffer back: a one-off backlog of a million messages must
// not pin its memory for the life of the queue.
const ringShrinkCap = 4096

func (r *msgRing) len() int { return r.n }

func (r *msgRing) grow() {
	buf := make([]Message, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

func (r *msgRing) pushBack(m Message) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

func (r *msgRing) pushFront(m Message) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = m
	r.n++
}

// popFront removes and returns the oldest message; the ring must not be
// empty.
func (r *msgRing) popFront() Message {
	m := r.buf[r.head]
	r.buf[r.head] = Message{} // drop the body reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 && len(r.buf) > ringShrinkCap {
		*r = msgRing{}
	}
	return m
}

// ackWindow is one consumer's delivered-but-unsettled messages, in the
// order they were delivered. Delivery tags are issued monotonically
// under the queue lock, so the window is tag-ordered by construction:
// settling the oldest delivery is a pop, settling any other is a binary
// search, and requeueing the window on cancel needs no sort.
type ackWindow struct {
	ents []ackEntry // ents[head:] ascending by tag; ents[:head] are spent
	head int
	live int // entries of ents[head:] not yet settled
}

type ackEntry struct {
	tag     uint64
	msg     Message
	settled bool
}

// push records a delivery; tag must exceed every tag pushed before.
func (w *ackWindow) push(tag uint64, msg Message) {
	if len(w.ents) == cap(w.ents) && w.live <= len(w.ents)/2 {
		// Out-of-order settles leave holes behind a long-lived head
		// entry; squeeze them out instead of growing past twice the
		// live count.
		kept := w.ents[:0]
		for _, e := range w.ents[w.head:] {
			if !e.settled {
				kept = append(kept, e)
			}
		}
		clear(w.ents[len(kept):])
		w.ents, w.head = kept, 0
	}
	w.ents = append(w.ents, ackEntry{tag: tag, msg: msg})
	w.live++
}

// take settles the delivery with the given tag and returns its message.
func (w *ackWindow) take(tag uint64) (Message, bool) {
	lo, hi := w.head, len(w.ents)
	if lo < hi && w.ents[lo].tag != tag { // else: the in-order fast path
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if w.ents[mid].tag < tag {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	if lo >= len(w.ents) || w.ents[lo].tag != tag || w.ents[lo].settled {
		return Message{}, false
	}
	e := &w.ents[lo]
	msg := e.msg
	e.msg, e.settled = Message{}, true
	w.live--
	for w.head < len(w.ents) && w.ents[w.head].settled {
		w.head++
	}
	if w.head == len(w.ents) {
		w.ents, w.head = w.ents[:0], 0
	}
	return msg, true
}

// dropNewest forgets the n most recently pushed deliveries, none of
// which may have been settled.
func (w *ackWindow) dropNewest(n int) {
	keep := len(w.ents) - n
	clear(w.ents[keep:])
	w.ents = w.ents[:keep]
	w.live -= n
}

// requeue empties the window onto the head of r, preserving delivery
// order (newest pushed first, so the oldest ends up in front), and
// returns how many messages it moved. The consumer saw these messages
// and may have partially processed them: each one's next delivery is a
// redelivery, and downstream idempotency (dedup) must treat it as such.
func (w *ackWindow) requeue(r *msgRing) int {
	for i := len(w.ents) - 1; i >= w.head; i-- {
		if e := &w.ents[i]; !e.settled {
			e.msg.redeliveries++
			r.pushFront(e.msg)
		}
	}
	n := w.live
	*w = ackWindow{}
	return n
}
