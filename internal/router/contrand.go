package router

import (
	"fmt"
	"sort"
	"sync"

	"bistream/internal/protocol"
	"bistream/internal/sketch"
	"bistream/internal/window"
)

// HotTracker implements the frequency-aware ("ContRand") routing
// refinement for equi-joins under skew: keys whose recent share of the
// stream exceeds a threshold are *promoted* — their tuples are stored
// round-robin across the whole group (restoring balance) while their
// join probes broadcast to the whole group (preserving correctness).
// Rare keys keep the cheap one-copy hash routing.
//
// Promotion is monotone-safe: a probe for a newly promoted key
// broadcasts, which is a superset of wherever its partners were stored.
// Demotion is drained like a retired layout generation: for a full
// window (+ slack) after a key cools down, probes keep broadcasting so
// tuples stored under the hot regime are still reachable; only then
// does the key return to single-member routing.
//
// The tracker must be shared by all routers of an engine (it is
// mutex-guarded) so their decisions agree; BiStream achieves the same
// by synchronizing frequency statistics across dispatchers.
type HotTracker struct {
	mu         sync.Mutex
	cm         *sketch.CountMin
	win        window.Sliding
	hotFrac    float64 // promote when share > hotFrac
	coldFrac   float64 // demote when share < coldFrac (hysteresis)
	minSamples uint64  // no decisions before this much traffic
	decayEvery uint64  // halve the sketch every this many observations
	sinceDecay uint64
	slackMS    int64

	hot     map[uint64]struct{} // promoted keys
	demoted map[uint64]int64    // key -> demotion event-time (drain until +W)
	pinned  map[uint64]bool     // operator-pinned placement, exempt from review

	// The stamp order of promotions: high is the largest stamp a router
	// has drawn through ObserveStamp, floor is high as of the latest
	// promotion. Every stamp drawn after a promotion exceeds floor, and
	// so exceeds every stamp drawn before it, on whichever router.
	high, floor uint64

	promotions int64
	demotions  int64
	// events receives promotion/demotion notifications for the
	// adaptation controller. Sends are non-blocking — a full channel
	// drops the event, and the controller's periodic reconcile against
	// HotKeys repairs any gap — so the routing hot path never stalls on
	// a slow consumer.
	events chan HotEvent
}

// HotEvent is one placement transition: a key crossed the promotion
// threshold (Promoted true) or cooled below the demotion threshold
// (Promoted false). TS is the event-time of the observation that
// triggered it.
type HotEvent struct {
	KeyHash  uint64
	Promoted bool
	TS       int64
}

// HotConfig configures a HotTracker.
type HotConfig struct {
	// HotFraction promotes keys whose recent traffic share exceeds it
	// (default 0.01 = 1%).
	HotFraction float64
	// Window must match the join window; it sets the demotion drain.
	Window window.Sliding
}

// NewHotTracker builds a tracker over a 4096×4 count-min sketch.
func NewHotTracker(cfg HotConfig) (*HotTracker, error) {
	if cfg.HotFraction <= 0 {
		cfg.HotFraction = 0.01
	}
	if cfg.HotFraction >= 1 {
		return nil, fmt.Errorf("router: hot fraction %v out of range (0,1)", cfg.HotFraction)
	}
	cm, err := sketch.New(4096, 4)
	if err != nil {
		return nil, err
	}
	return &HotTracker{
		cm:         cm,
		win:        cfg.Window,
		hotFrac:    cfg.HotFraction,
		coldFrac:   cfg.HotFraction / 2,
		minSamples: 512,
		decayEvery: 65536,
		slackMS:    1000,
		hot:        make(map[uint64]struct{}),
		demoted:    make(map[uint64]int64),
		pinned:     make(map[uint64]bool),
	}, nil
}

// Watch returns the tracker's event channel, creating it with the
// given buffer on first call (subsequent calls return the same
// channel). Events are dropped, never blocked on, when the buffer is
// full; consumers reconcile against HotKeys periodically.
func (h *HotTracker) Watch(buf int) <-chan HotEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.events == nil {
		if buf < 1 {
			buf = 64
		}
		h.events = make(chan HotEvent, buf)
	}
	return h.events
}

// notifyLocked records a transition and offers it to the watcher.
// Called with h.mu held.
func (h *HotTracker) notifyLocked(keyHash uint64, promoted bool, nowTS int64) {
	if promoted {
		h.promotions++
	} else {
		h.demotions++
	}
	if h.events == nil {
		return
	}
	select {
	case h.events <- HotEvent{KeyHash: keyHash, Promoted: promoted, TS: nowTS}:
	default:
	}
}

// Counts reports the cumulative promotion and demotion transitions.
func (h *HotTracker) Counts() (promotions, demotions int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.promotions, h.demotions
}

// Pin forces a key's placement: hot pins scattered-store/broadcast-
// probe, cold pins plain hash routing. Pinned keys are exempt from
// promotion, demotion and review until Unpin — the operator override
// for keys the sketch misjudges (or for pre-warming a key known to
// spike). Pinning emits no events and triggers no migration.
func (h *HotTracker) Pin(keyHash uint64, hot bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pinned[keyHash] = hot
	delete(h.hot, keyHash)
	delete(h.demoted, keyHash)
	if hot {
		h.floor = h.high
	}
}

// Unpin removes a manual pin. A previously pinned-hot key re-enters
// the demotion drain so tuples stored under the pinned regime stay
// reachable for a full window before hash routing resumes; the drain
// is announced as a demotion so the adaptation controller forgets the
// key's migration episode.
func (h *HotTracker) Unpin(keyHash uint64, nowTS int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wasHot := h.pinned[keyHash]
	delete(h.pinned, keyHash)
	if wasHot {
		h.demoted[keyHash] = nowTS
		h.notifyLocked(keyHash, false, nowTS)
	}
}

// PinnedKeys returns the pinned key hashes and their pinned placement
// (diagnostics).
func (h *HotTracker) PinnedKeys() map[uint64]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[uint64]bool, len(h.pinned))
	for k, v := range h.pinned {
		out[k] = v
	}
	return out
}

// Observe records one occurrence of the key hash and updates its
// promotion state. It returns the routing decision for this tuple:
// storeHot (scatter the store) and joinHot (broadcast the probe).
func (h *HotTracker) Observe(keyHash uint64, nowTS int64) (storeHot, joinHot bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.observeLocked(keyHash, nowTS)
}

// ObserveStamp is Observe for a router about to stamp the tuple: the
// stamp is drawn from st inside the tracker's critical section, so the
// routers sharing the tracker decide and stamp in one order. A
// promotion needs that order. The promoted key's probes broadcast and
// find partners wherever they were stored, but a partner routed before
// the promotion probed one member only; it meets a scattered store copy
// only by being probed by it, that is, only if the scattered tuple is
// ordered after it. The wall clock in the stamps does not promise this
// across routers (a router stamping a batch runs its counter ahead of
// the clock), so a stamp drawn here is also made to exceed every stamp
// drawn before the latest promotion.
func (h *HotTracker) ObserveStamp(keyHash uint64, nowTS int64, st *protocol.Stamper) (storeHot, joinHot bool, stamp uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	storeHot, joinHot = h.observeLocked(keyHash, nowTS)
	stamp = st.NextAfter(h.floor)
	h.high = max(h.high, stamp)
	return storeHot, joinHot, stamp
}

// observeLocked is Observe's body. Called with h.mu held.
func (h *HotTracker) observeLocked(keyHash uint64, nowTS int64) (storeHot, joinHot bool) {
	est := h.cm.Add(keyHash, 1)
	h.sinceDecay++
	if h.sinceDecay >= h.decayEvery {
		h.cm.Halve()
		h.sinceDecay = 0
		h.reviewLocked(nowTS)
	}
	if p, ok := h.pinned[keyHash]; ok {
		return p, p
	}
	total := h.cm.Total()
	_, isHot := h.hot[keyHash]
	if total >= h.minSamples {
		share := float64(est) / float64(total)
		switch {
		case !isHot && share > h.hotFrac:
			h.hot[keyHash] = struct{}{}
			delete(h.demoted, keyHash) // re-promoted while draining
			isHot = true
			h.floor = h.high
			h.notifyLocked(keyHash, true, nowTS)
		case isHot && share < h.coldFrac:
			delete(h.hot, keyHash)
			h.demoted[keyHash] = nowTS
			isHot = false
			h.notifyLocked(keyHash, false, nowTS)
		}
	}
	if isHot {
		return true, true
	}
	if demotedTS, draining := h.demoted[keyHash]; draining {
		if h.win.IsUnbounded() || nowTS-demotedTS <= h.win.SpanMillis()+h.slackMS {
			// Stores go back to the hash member immediately; probes
			// keep broadcasting until the hot-era tuples expire.
			return false, true
		}
		delete(h.demoted, keyHash)
	}
	return false, false
}

// reviewLocked runs on decay ticks: it demotes promoted keys whose
// share has collapsed (a key that vanishes from the stream is never
// observed again, so demotion cannot rely on observation alone) and
// drops fully drained demotions.
func (h *HotTracker) reviewLocked(nowTS int64) {
	total := h.cm.Total()
	if total >= h.minSamples {
		for k := range h.hot {
			if float64(h.cm.Estimate(k))/float64(total) < h.coldFrac {
				delete(h.hot, k)
				h.demoted[k] = nowTS
				h.notifyLocked(k, false, nowTS)
			}
		}
	}
	if h.win.IsUnbounded() {
		return
	}
	for k, ts := range h.demoted {
		if nowTS-ts > h.win.SpanMillis()+h.slackMS {
			delete(h.demoted, k)
		}
	}
}

// Status reports the routing decision for a key without recording an
// observation (diagnostics and tests).
func (h *HotTracker) Status(keyHash uint64, nowTS int64) (storeHot, joinHot bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.pinned[keyHash]; ok {
		return p, p
	}
	if _, isHot := h.hot[keyHash]; isHot {
		return true, true
	}
	if demotedTS, draining := h.demoted[keyHash]; draining {
		if h.win.IsUnbounded() || nowTS-demotedTS <= h.win.SpanMillis()+h.slackMS {
			return false, true
		}
	}
	return false, false
}

// HotKeys returns the promoted key hashes (sorted, for diagnostics).
func (h *HotTracker) HotKeys() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, 0, len(h.hot))
	for k := range h.hot {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
