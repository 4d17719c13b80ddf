// Package router implements the dispatcher service of §3.1.1: it
// ingests raw tuples, stamps them with the ordering protocol's counter,
// and fans them out onto the store stream (one joiner of the tuple's own
// relation) and the join stream (the joiners of the opposite relation
// that may hold matching tuples), using the routing strategy appropriate
// for the predicate's selectivity (§3.2).
package router

import (
	"fmt"
	"maps"
	"slices"

	"bistream/internal/window"
)

// A Group tracks the layout of one relation's joiner members. Layouts
// are versioned into generations so the engine can scale without data
// migration: stores always use the newest layout, while join fan-out
// covers every generation whose stored tuples may still be in-window.
// Once a retired generation's data has fully expired it is pruned.
type Group struct {
	win  window.Sliding
	gens []*generation
	// retireSlack widens the drain horizon to absorb event-time skew
	// between routing time and tuple timestamps.
	retireSlackMS int64
	// dead marks members whose state has been migrated away: they keep
	// their positional slot in old generations (so subgroup geometry is
	// undisturbed) but are filtered out of join fan-out — their tuples
	// now live on the members the shrunk current layout hashes to.
	dead map[int32]bool

	// The compiled join fan-out, recompiled whenever gens or dead change
	// (SetLayout, MarkDead, a prune that drops a generation), so routing
	// a tuple sorts, deduplicates and allocates nothing.
	//
	// all is the fan-out of a tuple that cannot be partitioned: every
	// live member of every generation. period is the least common
	// multiple of the partitioned generations' subgroup counts: the
	// fan-out of a partitioned tuple depends only on hash % period, and
	// joins files it under that residue the first time one is routed
	// (period 1: no generation partitions, every tuple gets all; period
	// 0: the multiple outgrew maxJoinRoutes, hashes key joins directly).
	all    []int32
	period uint64
	joins  map[uint64][]int32
}

// maxJoinRoutes bounds the compiled fan-out table; full, it starts over.
const maxJoinRoutes = 1 << 12

type generation struct {
	members   []int32
	subgroups int       // d; 1 = random/broadcast routing, len(members) = pure hash
	subs      [][]int32 // subs[s]: the members whose index i satisfies i % d == s
	rr        []uint64  // round-robin cursor per subgroup (store stream)
	retiredTS int64     // event-time when superseded; 0 while current
}

// NewGroup creates a group with no layout; SetLayout must be called
// before routing.
func NewGroup(win window.Sliding) *Group {
	return &Group{win: win, retireSlackMS: 1000}
}

// SetLayout installs a new layout of members partitioned into the given
// number of subgroups (Table 1's d and e). subgroups must be between 1
// and len(members). Member ids must be unique. The previous layout, if
// any, is retired as of nowTS and continues receiving join fan-out until
// its stored tuples expire.
func (g *Group) SetLayout(members []int32, subgroups int, nowTS int64) error {
	if len(members) == 0 {
		return fmt.Errorf("router: layout needs at least one member")
	}
	if subgroups < 1 || subgroups > len(members) {
		return fmt.Errorf("router: subgroups %d out of range [1,%d]", subgroups, len(members))
	}
	seen := make(map[int32]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return fmt.Errorf("router: duplicate member %d", m)
		}
		seen[m] = true
	}
	if cur := g.current(); cur != nil {
		if sameLayout(cur.members, members) && cur.subgroups == subgroups {
			return nil // no-op
		}
		cur.retiredTS = nowTS
	}
	g.gens = append(g.gens, newGeneration(members, subgroups, 0))
	g.prune(nowTS)
	g.compile()
	return nil
}

// newGeneration lays members out into subgroups, with fresh round-robin
// cursors.
func newGeneration(members []int32, subgroups int, retiredTS int64) *generation {
	gen := &generation{
		members:   append([]int32(nil), members...),
		subgroups: subgroups,
		subs:      make([][]int32, subgroups),
		rr:        make([]uint64, subgroups),
		retiredTS: retiredTS,
	}
	for i, m := range gen.members {
		gen.subs[i%subgroups] = append(gen.subs[i%subgroups], m)
	}
	return gen
}

// clone deep-copies the group — its generations with their retirement
// times, and the dead set — with fresh round-robin cursors.
func (g *Group) clone() *Group {
	out := &Group{win: g.win, retireSlackMS: g.retireSlackMS, dead: maps.Clone(g.dead)}
	for _, gen := range g.gens {
		out.gens = append(out.gens, newGeneration(gen.members, gen.subgroups, gen.retiredTS))
	}
	out.compile()
	return out
}

// compile rebuilds the join fan-out table from the live generations
// and the dead set.
func (g *Group) compile() {
	g.joins = make(map[uint64][]int32)
	g.period = 1
	g.all = nil // not truncated: earlier results may still be in a caller's hands
	for _, gen := range g.gens {
		g.all = append(g.all, gen.members...)
		if d := uint64(gen.subgroups); d > 1 && g.period != 0 {
			if g.period = g.period / gcd(g.period, d) * d; g.period > maxJoinRoutes {
				g.period = 0
			}
		}
	}
	g.all = g.live(g.all)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// live sorts ms and strips duplicates and dead members, in place.
func (g *Group) live(ms []int32) []int32 {
	slices.Sort(ms)
	ms = slices.Compact(ms)
	return slices.DeleteFunc(ms, func(m int32) bool { return g.dead[m] })
}

func sameLayout(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (g *Group) current() *generation {
	if len(g.gens) == 0 {
		return nil
	}
	return g.gens[len(g.gens)-1]
}

// Members returns the current layout's members (sorted copy).
func (g *Group) Members() []int32 {
	cur := g.current()
	if cur == nil {
		return nil
	}
	out := append([]int32(nil), cur.members...)
	slices.Sort(out)
	return out
}

// Generations returns how many layouts are still live (current plus
// draining retirees).
func (g *Group) Generations() int { return len(g.gens) }

// MarkDead excludes a migrated-away member from all join fan-out, past
// and future generations alike. It must only be called after the
// member's state has been grafted onto survivors of the current layout;
// from then on the current generation's subgroup fan-out covers what
// the old generations would have found on the dead member.
func (g *Group) MarkDead(id int32) {
	if g.dead == nil {
		g.dead = make(map[int32]bool)
	}
	g.dead[id] = true
	g.compile()
}

// prune drops retired generations whose stored tuples are all expired:
// a tuple stored under a generation has event time <= retiredTS, so by
// Theorem 1 everything is gone once nowTS - retiredTS > W (+ slack).
// Under a full-history window nothing ever expires, so retired
// generations are kept forever — the price of migration-free scaling
// without a window bound.
func (g *Group) prune(nowTS int64) {
	if len(g.gens) < 2 || g.win.IsUnbounded() {
		return
	}
	horizon := g.win.SpanMillis() + g.retireSlackMS
	keep := g.gens[:0]
	for i, gen := range g.gens {
		if i == len(g.gens)-1 || gen.retiredTS == 0 || nowTS-gen.retiredTS <= horizon {
			keep = append(keep, gen)
		}
	}
	if len(keep) < len(g.gens) {
		clear(g.gens[len(keep):])
		g.gens = keep
		g.compile()
	}
}

// StoreTarget picks the joiner that stores a tuple with the given join
// attribute hash: the tuple is hashed to a subgroup of the current
// layout and round-robined within it (random strategy when d == 1,
// pure hash partitioning when d == len(members)).
// partitionable=false ignores the hash and round-robins across the
// whole group — the random strategy, also used for individual hot keys
// under frequency-aware routing.
func (g *Group) StoreTarget(hash uint64, partitionable bool, nowTS int64) (int32, error) {
	g.prune(nowTS)
	cur := g.current()
	if cur == nil {
		return 0, fmt.Errorf("router: no layout installed")
	}
	if !partitionable {
		m := cur.members[cur.rr[0]%uint64(len(cur.members))]
		cur.rr[0]++
		return m, nil
	}
	sub := 0
	if cur.subgroups > 1 {
		sub = int(hash % uint64(cur.subgroups))
	}
	members := cur.subs[sub]
	m := members[cur.rr[sub]%uint64(len(members))]
	cur.rr[sub]++
	return m, nil
}

// JoinTargets returns the joiners that must receive the join-stream copy
// of a tuple with the given hash: for every live generation, the whole
// subgroup the hash maps to (all members when not partitionable or
// d == 1). The union across generations guarantees no match is missed
// while a retired layout drains. The result is sorted, free of
// duplicates and dead members, and shared: callers must not modify it.
func (g *Group) JoinTargets(hash uint64, partitionable bool, nowTS int64) ([]int32, error) {
	g.prune(nowTS)
	if len(g.gens) == 0 {
		return nil, fmt.Errorf("router: no layout installed")
	}
	if !partitionable || g.period == 1 {
		return g.all, nil
	}
	key := hash
	if g.period != 0 {
		key = hash % g.period
	}
	if out, ok := g.joins[key]; ok {
		return out, nil
	}
	var out []int32
	for _, gen := range g.gens {
		out = append(out, gen.subs[hash%uint64(gen.subgroups)]...)
	}
	out = g.live(out)
	if len(g.joins) >= maxJoinRoutes {
		clear(g.joins)
	}
	g.joins[key] = out
	return out, nil
}
