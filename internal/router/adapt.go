package router

import (
	"fmt"
	"sync"
	"time"

	"bistream/internal/metrics"
	"bistream/internal/tuple"
)

// Adapter is the adaptation controller that closes the detect→decide→
// move loop: the HotTracker detects skew and flips per-key placement
// (detect + decide), and the Adapter reacts to each promotion by
// live-migrating the key's already-stored partition from its old hash
// owner to the scattered owners (move), through an engine-supplied
// callback that drives internal/migrate's key-scoped path.
//
// The controller consumes the tracker's event channel and reconciles
// periodically against HotKeys, so dropped events (full channel) only
// delay a migration, never lose it. Migrations run one at a time from
// the controller goroutine — the engine serializes them against
// whole-member migrations anyway — with a per-key cooldown so a failed
// move retries on the next reconcile tick instead of hot-looping.
//
// Demotions need no controller action: the tracker itself drains a
// cooled key (probes keep broadcasting for a window + slack, so tuples
// scattered during the hot era stay reachable until they expire), and
// the scattered tuples are never moved back — reverse migration would
// buy nothing, since hash routing of new stores resumes immediately.
type Adapter struct {
	cfg    AdaptConfig
	events <-chan HotEvent

	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	lastAttempt map[uint64]time.Time
	migrated    map[uint64]bool
	inflight    int

	keyMigrations *metrics.Counter
	movedTuples   *metrics.Counter
	failures      *metrics.Counter
}

// AdaptConfig configures an Adapter.
type AdaptConfig struct {
	// Tracker is the shared HotTracker whose transitions drive the
	// controller. Required.
	Tracker *HotTracker
	// MigrateKey moves the stored partition of a newly hot key to its
	// scattered owners for one relation, returning how many tuples
	// moved. Called once per relation per promotion. Required.
	MigrateKey func(rel tuple.Relation, keyHash uint64) (int, error)
	// Metrics receives the controller's instruments under
	// "router_adapt."; nil uses a private registry.
	Metrics *metrics.Registry
}

const (
	// attemptGap is the minimum gap between migration attempts for one
	// key.
	attemptGap = 2 * time.Second
	// sweepEvery paces the sweep that catches dropped events and retries
	// failed migrations.
	sweepEvery = 250 * time.Millisecond
)

// MetricsPrefix is the registry subtree the Adapter's instruments live
// under (rendered with underscores by the Prometheus exporter, hence
// the router_adapt_* family).
const MetricsPrefix = "router_adapt."

// NewAdapter builds the controller. Call Start to begin adapting.
func NewAdapter(cfg AdaptConfig) (*Adapter, error) {
	if cfg.Tracker == nil {
		return nil, fmt.Errorf("router: adapter needs a HotTracker")
	}
	if cfg.MigrateKey == nil {
		return nil, fmt.Errorf("router: adapter needs a MigrateKey callback")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	a := &Adapter{
		cfg:           cfg,
		events:        cfg.Tracker.Watch(64),
		lastAttempt:   make(map[uint64]time.Time),
		migrated:      make(map[uint64]bool),
		keyMigrations: cfg.Metrics.Counter(MetricsPrefix + "key_migrations"),
		movedTuples:   cfg.Metrics.Counter(MetricsPrefix + "moved_tuples"),
		failures:      cfg.Metrics.Counter(MetricsPrefix + "move_failures"),
	}
	cfg.Metrics.GaugeFunc(MetricsPrefix+"promotions", func() float64 {
		p, _ := cfg.Tracker.Counts()
		return float64(p)
	})
	cfg.Metrics.GaugeFunc(MetricsPrefix+"demotions", func() float64 {
		_, d := cfg.Tracker.Counts()
		return float64(d)
	})
	cfg.Metrics.GaugeFunc(MetricsPrefix+"hot_keys", func() float64 {
		return float64(len(cfg.Tracker.HotKeys()))
	})
	cfg.Metrics.GaugeFunc(MetricsPrefix+"inflight", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.inflight)
	})
	cfg.Metrics.GaugeFunc(MetricsPrefix+"pending_keys", func() float64 {
		keys := a.scatteredKeys()
		a.mu.Lock()
		defer a.mu.Unlock()
		n := 0
		for _, k := range keys {
			if !a.migrated[k] {
				n++
			}
		}
		return float64(n)
	})
	return a, nil
}

// Start launches the controller goroutine.
func (a *Adapter) Start() {
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go a.loop()
}

// Stop halts the controller, waiting for any in-flight migration to
// finish (migrations carry their own timeout, so this is bounded).
func (a *Adapter) Stop() {
	if a.stop == nil {
		return
	}
	close(a.stop)
	<-a.done
	a.stop = nil
}

// Request asks the controller to consider a key's migration out of
// band — the engine uses it when an operator pins a key hot, which
// flips placement without a tracker promotion event. The migration
// runs asynchronously under the usual cooldown and episode rules.
func (a *Adapter) Request(keyHash uint64) {
	go a.maybeMigrate(keyHash)
}

func (a *Adapter) loop() {
	defer close(a.done)
	ticker := time.NewTicker(sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case ev := <-a.events:
			if ev.Promoted {
				a.maybeMigrate(ev.KeyHash)
			} else {
				// Cooled: forget the episode so a re-promotion migrates
				// whatever pile has re-accumulated under hash routing.
				a.mu.Lock()
				delete(a.migrated, ev.KeyHash)
				delete(a.lastAttempt, ev.KeyHash)
				a.mu.Unlock()
			}
		case <-ticker.C:
			for _, k := range a.scatteredKeys() {
				select {
				case <-a.stop:
					return
				default:
				}
				a.maybeMigrate(k)
			}
		}
	}
}

// scatteredKeys lists every key currently under scattered placement —
// tracker promotions plus operator hot pins — so the reconcile sweep
// retries failed migrations for both.
func (a *Adapter) scatteredKeys() []uint64 {
	keys := a.cfg.Tracker.HotKeys()
	for k, hot := range a.cfg.Tracker.PinnedKeys() {
		if hot {
			keys = append(keys, k)
		}
	}
	return keys
}

// maybeMigrate runs the key's migration (both relations) unless it
// already completed this hot episode or the per-key cooldown has not
// elapsed since the previous attempt.
func (a *Adapter) maybeMigrate(keyHash uint64) {
	a.mu.Lock()
	if a.migrated[keyHash] || time.Since(a.lastAttempt[keyHash]) < attemptGap {
		a.mu.Unlock()
		return
	}
	a.lastAttempt[keyHash] = time.Now()
	a.inflight++
	a.mu.Unlock()
	ok := true
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		moved, err := a.cfg.MigrateKey(rel, keyHash)
		if err != nil {
			a.failures.Inc()
			ok = false
			continue
		}
		a.keyMigrations.Inc()
		if moved > 0 {
			a.movedTuples.Add(int64(moved))
		}
	}
	a.mu.Lock()
	a.inflight--
	if ok {
		a.migrated[keyHash] = true
	}
	a.mu.Unlock()
}
