// Package protocol implements the tuple ordering protocol of §3.3 of
// the source text, which turns the pairwise-FIFO delivery the broker
// guarantees (Definition 8) into an order-consistent processing sequence
// at every joiner (Definition 7), eliminating the missed and duplicated
// join results of Figure 8(c)/(d).
//
// Mechanism: each router stamps every outgoing tuple with a
// monotonically increasing counter; the same stamp travels on both the
// store copy and the join copies, so the relative order of any two
// tuples is a property of the stamps alone and is identical at every
// joiner. Routers periodically broadcast punctuation signals carrying
// their current counter; a joiner buffers incoming envelopes in a
// priority queue and only processes those whose counter is covered by
// the punctuation frontier of every registered router, in (counter,
// router) order.
package protocol

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"bistream/internal/tuple"
)

// Kind discriminates envelope payloads.
type Kind uint8

// Envelope kinds.
const (
	KindTuple Kind = iota + 1
	KindPunctuation
	// KindRetire is a router's tombstone: the last envelope it sends on
	// each path before shutting down (scale-in). On receipt a joiner
	// unregisters that (router, source) frontier — FIFO guarantees
	// nothing can follow it, so the frozen frontier of a departed
	// router can never gate the live routers' newer stamps.
	KindRetire
)

// Stream tells a joiner what to do with a tuple: store it in its own
// relation's window, or join it against the opposite relation's window.
type Stream uint8

// The two logical streams leaving a router (§3.2).
const (
	StreamStore Stream = iota + 1
	StreamJoin
)

// String names the stream.
func (s Stream) String() string {
	if s == StreamStore {
		return "store"
	}
	return "join"
}

// Envelope is the unit routers send to joiners: either a stamped tuple
// on the store or join stream, or a punctuation signal.
type Envelope struct {
	Kind     Kind
	RouterID int32
	Counter  uint64
	Stream   Stream       // KindTuple only
	Tuple    *tuple.Tuple // KindTuple only

	// RecvNanos is the receiving joiner's wall clock at arrival. It is
	// not serialized; the joiner sets it before buffering and reads it
	// at release to measure the latency the ordering protocol adds.
	RecvNanos int64
}

// Marshal encodes the envelope for a broker message body.
func (e Envelope) Marshal() []byte {
	n := 13
	if e.Kind == KindTuple {
		n += 1 + tuple.EncodedLen(e.Tuple)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, byte(e.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.RouterID))
	buf = binary.LittleEndian.AppendUint64(buf, e.Counter)
	if e.Kind == KindTuple {
		buf = append(buf, byte(e.Stream))
		buf = tuple.AppendBinary(buf, e.Tuple)
	}
	return buf
}

// UnmarshalEnvelope decodes an envelope.
func UnmarshalEnvelope(data []byte) (Envelope, error) {
	return DecodeEnvelope(data, nil)
}

// DecodeEnvelope decodes an envelope, drawing the tuple allocation from
// dec when it is non-nil — the batch hot path: a consume loop decoding
// hundreds of envelopes per wakeup amortizes its tuple allocations
// across the decoder's slabs. A nil dec behaves exactly like
// UnmarshalEnvelope.
func DecodeEnvelope(data []byte, dec *tuple.Decoder) (Envelope, error) {
	if len(data) < 13 {
		return Envelope{}, fmt.Errorf("protocol: short envelope (%d bytes)", len(data))
	}
	e := Envelope{
		Kind:     Kind(data[0]),
		RouterID: int32(binary.LittleEndian.Uint32(data[1:5])),
		Counter:  binary.LittleEndian.Uint64(data[5:13]),
	}
	switch e.Kind {
	case KindPunctuation, KindRetire:
		if len(data) != 13 {
			return Envelope{}, fmt.Errorf("protocol: signal with %d trailing bytes", len(data)-13)
		}
		return e, nil
	case KindTuple:
		if len(data) < 14 {
			return Envelope{}, fmt.Errorf("protocol: tuple envelope missing stream byte")
		}
		e.Stream = Stream(data[13])
		if e.Stream != StreamStore && e.Stream != StreamJoin {
			return Envelope{}, fmt.Errorf("protocol: bad stream byte %d", data[13])
		}
		var t *tuple.Tuple
		var err error
		if dec != nil {
			t, err = dec.Unmarshal(data[14:])
		} else {
			t, err = tuple.Unmarshal(data[14:])
		}
		if err != nil {
			return Envelope{}, err
		}
		e.Tuple = t
		return e, nil
	default:
		return Envelope{}, fmt.Errorf("protocol: unknown envelope kind %d", data[0])
	}
}

// StampUnit is the wall-clock duration one stamp count stands for. The
// ordering protocol only compares stamps, but the joiner's dedup horizon
// reads a stamp difference as elapsed time, so the unit is part of what
// an envelope means: routers of one deployment must agree on it.
const StampUnit = time.Microsecond

// StampSpan converts a duration into a stamp difference.
func StampSpan(d time.Duration) uint64 { return uint64(d / StampUnit) }

// Stamper assigns the per-router monotone counter as a hybrid logical
// clock: each stamp is max(previous+1, wall-clock microseconds). The
// wall-clock component keeps the counters of independent routers
// loosely synchronized, so an idle router's punctuations still advance
// the joiners' release frontier — without it, a router that stops
// sending would freeze the minimum frontier below the counters of its
// busier peers and stall the whole protocol. Correctness does not
// depend on clock accuracy: any monotone per-router sequence yields a
// valid global (counter, routerID) order; the clock only provides
// liveness and an arrival-time-like order.
//
// A router that stamps a batch of tuples back to back issues several
// stamps per microsecond, so previous+1 carries its counter up to a
// batch ahead of the clock until the batch is published. Nothing may
// therefore assume that a stamp issued later by another router is
// larger; where two routers' stamps must be ordered around an event
// (a hot key's promotion, a layout change) NextAfter and Advance make
// them so.
//
// Stamper is safe for concurrent use.
type Stamper struct {
	routerID int32
	now      func() uint64
	mu       sync.Mutex
	counter  uint64
}

// NewStamper creates a stamper for the given router id using the wall
// clock as the hybrid component.
func NewStamper(routerID int32) *Stamper {
	return NewStamperFunc(routerID, func() uint64 { return uint64(time.Now().UnixNano() / int64(StampUnit)) })
}

// NewStamperFunc creates a stamper with a custom clock source; now may
// return 0 for a purely logical counter (tests).
func NewStamperFunc(routerID int32, now func() uint64) *Stamper {
	return &Stamper{routerID: routerID, now: now}
}

// Next returns the next stamp (strictly increasing, starting at 1).
func (s *Stamper) Next() uint64 { return s.NextAfter(0) }

// NextAfter returns the next stamp, which also exceeds floor: the
// floor is a stamp another router issued that this one must be ordered
// after (see router.HotTracker.ObserveStamp).
func (s *Stamper) NextAfter(floor uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := max(s.counter, floor) + 1
	if t := s.now(); t > c {
		c = t
	}
	s.counter = c
	return c
}

// Punctuation returns the value a punctuation signal carries: it
// consumes the current clock so every later stamp is strictly greater,
// which is the promise (Definition 7) joiners rely on when releasing
// envelopes with counter <= frontier.
func (s *Stamper) Punctuation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.now(); t > s.counter {
		s.counter = t
	}
	return s.counter
}

// Current returns the last issued stamp without advancing the clock.
func (s *Stamper) Current() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counter
}

// Advance moves the counter up to at least c, so every later stamp is
// strictly greater than c. Routers use it to order their stamps across
// a layout change: see router.SetLayouts.
func (s *Stamper) Advance(c uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c > s.counter {
		s.counter = c
	}
}

// RouterID returns the stamper's router id.
func (s *Stamper) RouterID() int32 { return s.routerID }

// Source identifies one FIFO path from a router into a joiner. A joiner
// typically has two: its store-stream queue and its join-stream queue.
// Punctuations are broadcast on every path, and an envelope only
// releases when every registered (router, source) frontier covers its
// counter, because FIFO holds per path, not across paths.
type Source int32

// The conventional sources of a joiner.
const (
	SourceStore Source = 0
	SourceJoin  Source = 1
)

type frontKey struct {
	router int32
	source Source
}

// Reorderer is the joiner-side buffer: it holds envelopes until the
// punctuation frontier of every registered (router, source) path covers
// them, then releases them in (counter, routerID) order — a subsequence
// of one global sequence, as Definition 7 requires.
//
// Reorderer is not safe for concurrent use; the joiner serializes access.
type Reorderer struct {
	frontier map[frontKey]uint64
	pending  envHeap
	released uint64
	maxDepth int

	// minCache holds minFrontier()'s value while minDirty is false, so
	// the per-envelope release check is one comparison instead of a map
	// iteration. Mutations that can lower or raise the minimum (retire,
	// restore, raising the path that holds it) set minDirty.
	minCache uint64
	minDirty bool
	// lastAdd short-circuits AddRouter's registered-check for the path
	// that registered most recently — the steady state is thousands of
	// envelopes from the same (router, source) per punctuation period.
	lastAdd   frontKey
	lastAddOK bool
}

// NewReorderer creates an empty reorder buffer. Router paths must be
// registered with AddRouter before their envelopes can release.
func NewReorderer() *Reorderer {
	return &Reorderer{frontier: make(map[frontKey]uint64)}
}

// AddRouter registers a router path; until it punctuates, its frontier
// is 0 and gates every release (a newly added router cannot have sent
// anything yet, so this is conservative only for one punctuation
// period).
func (r *Reorderer) AddRouter(id int32, source Source) {
	k := frontKey{id, source}
	if r.lastAddOK && k == r.lastAdd {
		return
	}
	if _, ok := r.frontier[k]; !ok {
		r.frontier[k] = 0
		// A fresh path's frontier is 0, so it is the minimum.
		r.minCache, r.minDirty = 0, false
	}
	r.lastAdd, r.lastAddOK = k, true
}

// RemoveRouter unregisters all paths of a router (scale-in).
func (r *Reorderer) RemoveRouter(id int32) {
	for k := range r.frontier {
		if k.router == id {
			delete(r.frontier, k)
		}
	}
	r.minDirty, r.lastAddOK = true, false
}

// RemoveRouterAndRelease unregisters a router and returns the envelopes
// its departure unblocks (the departing router may have been the one
// holding the minimum frontier).
func (r *Reorderer) RemoveRouterAndRelease(id int32) []Envelope {
	r.RemoveRouter(id)
	return r.release()
}

// Routers returns the number of registered router paths.
func (r *Reorderer) Routers() int { return len(r.frontier) }

// Add buffers a tuple envelope arriving on the given source path and
// returns any envelopes that are now releasable, in order.
func (r *Reorderer) Add(e Envelope, source Source) []Envelope {
	return r.AddInto(e, source, nil)
}

// AddInto is Add with a caller-owned release buffer: releasable
// envelopes are appended to out and the extended slice returned, so a
// batch consume loop can drain many deliveries into one reused slice
// instead of allocating a fresh one per envelope.
func (r *Reorderer) AddInto(e Envelope, source Source, out []Envelope) []Envelope {
	switch e.Kind {
	case KindPunctuation:
		k := frontKey{e.RouterID, source}
		if cur, ok := r.frontier[k]; !ok || e.Counter > cur {
			r.frontier[k] = e.Counter
			r.minDirty = true
		}
		return r.releaseInto(out)
	case KindRetire:
		delete(r.frontier, frontKey{e.RouterID, source})
		r.minDirty, r.lastAddOK = true, false
		return r.releaseInto(out)
	}
	r.AddRouter(e.RouterID, source) // seeing traffic implies the path exists
	r.pending.push(e)
	if len(r.pending) > r.maxDepth {
		r.maxDepth = len(r.pending)
	}
	return r.releaseInto(out)
}

// Punctuate advances a router path's frontier (from a punctuation
// signal) and returns the newly releasable envelopes, in order.
func (r *Reorderer) Punctuate(routerID int32, source Source, counter uint64) []Envelope {
	k := frontKey{routerID, source}
	if cur, ok := r.frontier[k]; !ok || counter > cur {
		r.frontier[k] = counter
		r.minDirty = true
	}
	return r.release()
}

// Retire unregisters one (router, source) path on receipt of the
// router's tombstone and returns the envelopes its removal unblocks.
func (r *Reorderer) Retire(routerID int32, source Source) []Envelope {
	delete(r.frontier, frontKey{routerID, source})
	r.minDirty, r.lastAddOK = true, false
	return r.release()
}

// MinFrontier reports the smallest punctuated counter over registered
// router paths (0 when none are registered). Migration uses it as the
// drain barrier: once every path's frontier passes the layout-change
// cursor, every tuple stamped before the change has been released and
// processed here.
func (r *Reorderer) MinFrontier() uint64 { return r.minFrontier() }

// minFrontier computes the smallest punctuated counter over registered
// routers; envelopes at or below it are safe to process.
func (r *Reorderer) minFrontier() uint64 {
	if !r.minDirty {
		return r.minCache
	}
	first := true
	var m uint64
	for _, c := range r.frontier {
		if first || c < m {
			m = c
			first = false
		}
	}
	if first {
		m = 0
	}
	r.minCache, r.minDirty = m, false
	return m
}

func (r *Reorderer) release() []Envelope {
	return r.releaseInto(nil)
}

func (r *Reorderer) releaseInto(out []Envelope) []Envelope {
	m := r.minFrontier()
	for len(r.pending) > 0 && r.pending[0].Counter <= m {
		out = append(out, r.pending.pop())
		r.released++
	}
	return out
}

// Frontier is one (router, source) path's punctuation watermark, the
// per-router sequence cursor a checkpoint manifest carries so a
// restored joiner resumes releasing from exactly where it stopped.
type Frontier struct {
	Router  int32
	Source  Source
	Counter uint64
}

// Export snapshots the reorderer: every registered path's frontier
// (sorted by router then source, for a deterministic encoding) and the
// buffered envelopes still awaiting release, in heap order.
func (r *Reorderer) Export() ([]Frontier, []Envelope) {
	fronts := make([]Frontier, 0, len(r.frontier))
	for k, c := range r.frontier {
		fronts = append(fronts, Frontier{Router: k.router, Source: k.source, Counter: c})
	}
	sort.Slice(fronts, func(i, j int) bool {
		if fronts[i].Router != fronts[j].Router {
			return fronts[i].Router < fronts[j].Router
		}
		return fronts[i].Source < fronts[j].Source
	})
	pending := make([]Envelope, len(r.pending))
	copy(pending, r.pending)
	return fronts, pending
}

// Restore replaces the reorderer's state with an exported snapshot.
// Envelopes redelivered after a restore coexist with their restored
// pending twins; the consumer's idempotency filter suppresses the
// second release.
func (r *Reorderer) Restore(fronts []Frontier, pending []Envelope) {
	r.frontier = make(map[frontKey]uint64, len(fronts))
	for _, f := range fronts {
		r.frontier[frontKey{f.Router, f.Source}] = f.Counter
	}
	r.minDirty, r.lastAddOK = true, false
	r.pending = make(envHeap, len(pending))
	copy(r.pending, pending)
	r.pending.init()
}

// Flush releases everything regardless of frontiers (engine shutdown).
func (r *Reorderer) Flush() []Envelope {
	out := make([]Envelope, 0, len(r.pending))
	for len(r.pending) > 0 {
		out = append(out, r.pending.pop())
		r.released++
	}
	return out
}

// Pending returns the number of buffered envelopes.
func (r *Reorderer) Pending() int { return len(r.pending) }

// Released returns the total number of envelopes released.
func (r *Reorderer) Released() uint64 { return r.released }

// MaxDepth returns the high-water mark of the buffer, a measure of the
// protocol's memory cost.
func (r *Reorderer) MaxDepth() int { return r.maxDepth }

// envHeap orders envelopes by (counter, routerID): the global sequence.
// The sift operations are hand-rolled rather than going through
// container/heap so push and pop stay monomorphic — no interface boxing
// of Envelope values on the per-tuple hot path.
type envHeap []Envelope

func (h envHeap) less(i, j int) bool {
	if h[i].Counter != h[j].Counter {
		return h[i].Counter < h[j].Counter
	}
	return h[i].RouterID < h[j].RouterID
}

func (h *envHeap) push(e Envelope) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *envHeap) pop() Envelope {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = Envelope{} // drop the Tuple pointer so the GC can reclaim it
	s = s[:n]
	*h = s
	s.siftDown(0)
	return top
}

func (h envHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h envHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
