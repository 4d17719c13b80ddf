package core

import (
	"fmt"
	"time"

	"bistream/internal/joiner"
	"bistream/internal/metrics"
	"bistream/internal/tuple"
)

// SupervisorConfig tunes the engine's joiner supervision loop.
type SupervisorConfig struct {
	// Interval is the health-check period (default 500ms).
	Interval time.Duration
	// Stall is how long a member may sit on a non-empty queue backlog
	// without its received counter advancing before it is declared stuck
	// and replaced (default 5s). It must comfortably exceed the
	// checkpoint interval so a member mid-checkpoint is never condemned.
	Stall time.Duration
	// OnReplace, when set, is invoked after each replacement (testing,
	// alerting).
	OnReplace func(rel tuple.Relation, id int32)
}

func (c *SupervisorConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Stall <= 0 {
		c.Stall = 5 * time.Second
	}
}

// Supervisor watches the joiner groups and replaces members that stop
// making progress. Health is judged from the outside, through the
// metrics registry and broker queue statistics rather than calls into
// the member itself — a wedged service cannot be trusted to answer its
// own health check: a member is stuck when its durable queues hold a
// backlog (ready or unacked deliveries) while its received counter has
// not moved for a full Stall period. Replacement is the engine's one
// joiner restart path: cold when the engine has a checkpoint provider
// (fresh core, state recovered from the member's checkpoint store plus
// queue redelivery), warm otherwise.
type Supervisor struct {
	e    *Engine
	cfg  SupervisorConfig
	stop chan struct{}
	done chan struct{}

	checks       *metrics.Counter // engine.supervisor_checks
	replacements *metrics.Counter // engine.supervisor_replacements
}

// supHealth is the per-member progress memory between checks.
type supHealth struct {
	received int64
	since    time.Time
}

// Supervise launches a supervision loop over the engine's joiners.
// Call Stop on the returned Supervisor before stopping the engine.
func (e *Engine) Supervise(cfg SupervisorConfig) *Supervisor {
	cfg.applyDefaults()
	s := &Supervisor{
		e:            e,
		cfg:          cfg,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		checks:       e.reg.Counter("engine.supervisor_checks"),
		replacements: e.reg.Counter("engine.supervisor_replacements"),
	}
	go s.run()
	return s
}

// Stop terminates the supervision loop and waits for it to exit.
func (s *Supervisor) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

func (s *Supervisor) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	state := make(map[string]supHealth)
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.check(state)
		}
	}
}

// check inspects every active member once and replaces the stuck ones.
func (s *Supervisor) check(state map[string]supHealth) {
	s.checks.Inc()
	e := s.e
	e.mu.Lock()
	if e.state.Load() == engineStopped {
		e.mu.Unlock()
		return
	}
	// Migration donors are supervised too: a wedged donor would stall
	// the migration's drain or cut-over barrier forever.
	var svcs []*joiner.Service
	for _, m := range e.members {
		if m.state == memberActive || m.migrating() {
			svcs = append(svcs, m.svc)
		}
	}
	e.mu.Unlock()

	now := time.Now()
	seen := make(map[string]struct{}, len(svcs))
	for _, svc := range svcs {
		rel, id := svc.Rel(), svc.ID()
		key := fmt.Sprintf("%s-%d", rel, id)
		seen[key] = struct{}{}
		// Progress is read from the registry (atomic counters shared by
		// every incarnation of the member id), never from the service.
		recv, _ := e.reg.Value(svc.Core().MetricsPrefix() + "received")
		backlog := s.queueBacklog(svc)
		h, known := state[key]
		if !known || int64(recv) != h.received || backlog == 0 {
			state[key] = supHealth{received: int64(recv), since: now}
			continue
		}
		if now.Sub(h.since) < s.cfg.Stall {
			continue
		}
		// Cold with a checkpoint provider (fresh core, state recovered from
		// the store plus redelivery); warm otherwise, since a cold restart
		// without one would lose the window. restartJoiner finds the member
		// wherever scaling has moved it since this check began.
		if e.restartJoiner(svc, e.cfg.Checkpoint != nil, 0) == nil {
			s.replacements.Inc()
		}
		state[key] = supHealth{received: int64(recv), since: now}
		if s.cfg.OnReplace != nil {
			s.cfg.OnReplace(rel, id)
		}
	}
	// Forget members that scaled away so their ids can return cleanly.
	for key := range state {
		if _, ok := seen[key]; !ok {
			delete(state, key)
		}
	}
}

// queueBacklog sums the deliveries waiting on (ready) or held by
// (unacked) the member's two queues. Stats errors — a queue deleted
// mid-check by scale-in — count as no backlog.
func (s *Supervisor) queueBacklog(svc *joiner.Service) int64 {
	var backlog int64
	storeQ, joinQ := svc.Queues()
	for _, q := range []string{storeQ, joinQ} {
		st, err := s.e.client.QueueStats(q)
		if err != nil {
			continue
		}
		backlog += int64(st.Ready) + int64(st.Unacked)
	}
	return backlog
}
