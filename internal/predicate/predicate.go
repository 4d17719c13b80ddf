// Package predicate defines join predicates and the probe plans they
// induce over the in-memory indexes.
//
// The join-biclique model supports arbitrary theta-joins because each
// edge of the biclique can compute a full Cartesian comparison; the
// predicate abstraction additionally tells the engine how to do better
// than that: an equi-join probes a hash index point-wise and is
// hash-partitionable (low selectivity → hash routing), while band and
// inequality joins probe an ordered index by range and require the
// random (broadcast) routing strategy.
package predicate

import (
	"fmt"
	"math"

	"bistream/internal/tuple"
)

// Predicate decides whether an R tuple joins with an S tuple, and
// exposes enough structure for indexing and routing decisions.
type Predicate interface {
	// Match reports whether the pair joins. r must be from relation R
	// and s from relation S.
	Match(r, s *tuple.Tuple) bool
	// IndexAttr returns the indexed attribute position for tuples of
	// the given relation, or -1 when the predicate cannot use an index
	// on that side (full scan).
	IndexAttr(rel tuple.Relation) int
	// Plan builds the probe plan for finding matches of probe (a tuple
	// of relation probe.Rel) inside the index holding the opposite
	// relation.
	Plan(probe *tuple.Tuple) Plan
	// Partitionable reports whether matching pairs always agree on the
	// hash of their join attributes, enabling hash-partition routing.
	Partitionable() bool
	// String describes the predicate.
	String() string
}

// PlanKind selects the index access path.
type PlanKind uint8

// Access paths.
const (
	ProbePoint PlanKind = iota // hash lookup on Key
	ProbeRange                 // ordered scan of [Lo, Hi]
	ProbeAll                   // full scan
)

// Plan tells an index how to locate join candidates. Candidates are
// verified with Predicate.Match, so a plan may over-approximate.
type Plan struct {
	Kind PlanKind
	Key  tuple.Value // ProbePoint
	// KeyHash optionally carries Key.Hash(), computed once at plan build
	// so a point probe walking a chain of hash sub-indexes does not
	// rehash per sub-index. Zero means "not precomputed": consumers fall
	// back to Key.Hash(), which stays correct even for a key whose real
	// hash is zero (the recomputation returns the same value).
	KeyHash uint64
	Lo      tuple.Value // ProbeRange; invalid Value = unbounded
	Hi      tuple.Value // ProbeRange; invalid Value = unbounded
	LoInc   bool
	HiInc   bool
}

// HashOfKey returns the point-probe key's hash, using the precomputed
// KeyHash when present.
func (p *Plan) HashOfKey() uint64 {
	if p.KeyHash != 0 {
		return p.KeyHash
	}
	return p.Key.Hash()
}

// Equi is the equality join R.attr = S.attr.
type Equi struct {
	RAttr, SAttr int
}

// NewEqui builds an equality predicate over the given attribute
// positions.
func NewEqui(rAttr, sAttr int) Equi { return Equi{RAttr: rAttr, SAttr: sAttr} }

// Match implements Predicate.
func (p Equi) Match(r, s *tuple.Tuple) bool {
	return r.Value(p.RAttr).Equal(s.Value(p.SAttr))
}

// IndexAttr implements Predicate.
func (p Equi) IndexAttr(rel tuple.Relation) int {
	if rel == tuple.R {
		return p.RAttr
	}
	return p.SAttr
}

// Plan implements Predicate: a point probe with the probing tuple's own
// join attribute.
func (p Equi) Plan(probe *tuple.Tuple) Plan {
	key := probe.Value(p.IndexAttr(probe.Rel))
	return Plan{Kind: ProbePoint, Key: key, KeyHash: key.Hash()}
}

// Partitionable implements Predicate: equality is hash-partitionable.
func (p Equi) Partitionable() bool { return true }

func (p Equi) String() string { return fmt.Sprintf("R[%d] = S[%d]", p.RAttr, p.SAttr) }

// Band is the band join |R.attr - S.attr| <= Width over numeric
// attributes, the classic high-selectivity predicate of streaming
// evaluations.
type Band struct {
	RAttr, SAttr int
	Width        float64
}

// NewBand builds a band predicate.
func NewBand(rAttr, sAttr int, width float64) Band {
	return Band{RAttr: rAttr, SAttr: sAttr, Width: math.Abs(width)}
}

// Match implements Predicate.
func (p Band) Match(r, s *tuple.Tuple) bool {
	rv, sv := r.Value(p.RAttr), s.Value(p.SAttr)
	if !rv.IsValid() || !sv.IsValid() {
		return false
	}
	return math.Abs(rv.AsFloat()-sv.AsFloat()) <= p.Width
}

// IndexAttr implements Predicate.
func (p Band) IndexAttr(rel tuple.Relation) int {
	if rel == tuple.R {
		return p.RAttr
	}
	return p.SAttr
}

// Plan implements Predicate: scan [v-Width, v+Width].
func (p Band) Plan(probe *tuple.Tuple) Plan {
	v := probe.Value(p.IndexAttr(probe.Rel)).AsFloat()
	return Plan{
		Kind:  ProbeRange,
		Lo:    tuple.Float(v - p.Width),
		Hi:    tuple.Float(v + p.Width),
		LoInc: true,
		HiInc: true,
	}
}

// Partitionable implements Predicate: a band join can match across hash
// partitions, so it is not partitionable.
func (p Band) Partitionable() bool { return false }

func (p Band) String() string {
	return fmt.Sprintf("|R[%d] - S[%d]| <= %g", p.RAttr, p.SAttr, p.Width)
}

// Op is a comparison operator for Theta predicates.
type Op uint8

// Comparison operators, applied as R.attr Op S.attr.
const (
	LT Op = iota
	LE
	GT
	GE
	NE
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case NE:
		return "!="
	default:
		return "?"
	}
}

// Theta is the inequality join R.attr Op S.attr.
type Theta struct {
	RAttr, SAttr int
	Op           Op
}

// NewTheta builds an inequality predicate.
func NewTheta(rAttr, sAttr int, op Op) Theta {
	return Theta{RAttr: rAttr, SAttr: sAttr, Op: op}
}

// Match implements Predicate.
func (p Theta) Match(r, s *tuple.Tuple) bool {
	rv, sv := r.Value(p.RAttr), s.Value(p.SAttr)
	if !rv.IsValid() || !sv.IsValid() {
		return false
	}
	c := rv.Compare(sv)
	switch p.Op {
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	case NE:
		return c != 0
	default:
		return false
	}
}

// IndexAttr implements Predicate.
func (p Theta) IndexAttr(rel tuple.Relation) int {
	if rel == tuple.R {
		return p.RAttr
	}
	return p.SAttr
}

// Plan implements Predicate. The plan direction flips with the probing
// side: probing the R index with an S tuple under R.attr < S.attr means
// scanning R values below the S value.
func (p Theta) Plan(probe *tuple.Tuple) Plan {
	v := probe.Value(p.IndexAttr(probe.Rel))
	op := p.Op
	if probe.Rel == tuple.R {
		// Probing the S index: invert the comparison to S.attr ? R.attr.
		switch op {
		case LT:
			op = GT
		case LE:
			op = GE
		case GT:
			op = LT
		case GE:
			op = LE
		}
	}
	// Now op expresses indexedValue Op probeValue.
	switch op {
	case LT:
		return Plan{Kind: ProbeRange, Hi: v, HiInc: false}
	case LE:
		return Plan{Kind: ProbeRange, Hi: v, HiInc: true}
	case GT:
		return Plan{Kind: ProbeRange, Lo: v, LoInc: false}
	case GE:
		return Plan{Kind: ProbeRange, Lo: v, LoInc: true}
	default: // NE: nearly everything matches; scan all and verify
		return Plan{Kind: ProbeAll}
	}
}

// Partitionable implements Predicate.
func (p Theta) Partitionable() bool { return false }

func (p Theta) String() string {
	return fmt.Sprintf("R[%d] %s S[%d]", p.RAttr, p.Op, p.SAttr)
}

// Func wraps an arbitrary matching function. It forces full scans and
// random routing, the model's worst case, which the biclique still
// supports because every R/S pair meets on some edge.
type Func struct {
	Fn   func(r, s *tuple.Tuple) bool
	Desc string
}

// NewFunc wraps fn with a description for diagnostics.
func NewFunc(desc string, fn func(r, s *tuple.Tuple) bool) Func {
	return Func{Fn: fn, Desc: desc}
}

// Match implements Predicate.
func (p Func) Match(r, s *tuple.Tuple) bool { return p.Fn(r, s) }

// IndexAttr implements Predicate: no index help.
func (p Func) IndexAttr(tuple.Relation) int { return -1 }

// Plan implements Predicate: full scan.
func (p Func) Plan(*tuple.Tuple) Plan { return Plan{Kind: ProbeAll} }

// Partitionable implements Predicate.
func (p Func) Partitionable() bool { return false }

func (p Func) String() string {
	if p.Desc != "" {
		return p.Desc
	}
	return "custom predicate"
}
