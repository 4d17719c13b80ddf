// Package bistream is a from-scratch Go implementation of the
// join-biclique distributed stream join model ("Scalable Distributed
// Stream Join Processing", SIGMOD 2015) in its elastic, message-driven
// microservices form (the elastic-biclique system): routers stamp and
// fan incoming tuples onto store and join streams, two groups of
// joiners hold the sliding windows of the two relations in chained
// in-memory indexes, a tuple ordering protocol makes results
// exactly-once, and both tiers scale in and out without data migration.
//
// This root package is the public API; it re-exports the engine and its
// vocabulary types from the internal packages. A minimal session:
//
//	eng, err := bistream.New(bistream.Equi(0, 0),
//	    bistream.WithWindow(10*time.Minute),
//	    bistream.WithJoiners(2, 2),
//	)
//	if err != nil { ... }
//	if err := eng.Start(); err != nil { ... }
//	defer eng.Stop()
//	eng.Ingest(bistream.NewTuple(bistream.R, 0, ts, bistream.Int(42)))
//	for jr := range eng.Results() { ... }
//
// # Migration from the Config-struct API
//
// New originally took a core Config struct; it now accepts either form:
//
//	bistream.New(bistream.Config{Predicate: p, Window: w}) // still works
//	bistream.New(p, bistream.WithWindow(w))                // functional options
//
// Options may also be combined with a Config base — they are applied on
// top of it in order. The flat Engine.Stats and Engine.JoinerStats gave
// way to the structured, versioned Engine.Snapshot, whose Routers,
// RJoiners and SJoiners views carry the same per-instance fields; the
// registry (Engine.Metrics, WithMetricsAddr) can also be scraped
// directly.
//
// See DESIGN.md for the system inventory, docs/OPERATIONS.md for the
// observability endpoints and metric catalog, and EXPERIMENTS.md for
// the reproduced evaluation.
package bistream

import (
	"fmt"

	"bistream/internal/core"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// Engine is the running join-biclique system. See the internal core
// package for the full method set: Start, Stop, Ingest, IngestContext,
// Results, ScaleJoiners, ScaleRouters, Snapshot, Metrics, Quiesce.
type Engine = core.Engine

// Config configures an Engine.
type Config = core.Config

// Snapshot is the structured, versioned view of a running engine
// returned by Engine.Snapshot.
type Snapshot = core.Snapshot

// RouterView and MemberView are the per-instance entries of Snapshot.
type (
	RouterView = core.RouterView
	MemberView = core.MemberView
)

// Registry is the named-metric registry engines publish their
// instruments in; see Engine.Metrics and WithMetrics.
type Registry = metrics.Registry

// NewRegistry creates an empty metric registry (for WithMetrics).
func NewRegistry() *Registry { return metrics.NewRegistry() }

// New validates the configuration and assembles an engine.
//
// config is either a full Config struct (the original API) or just a
// Predicate; opts are applied on top in order:
//
//	bistream.New(bistream.Config{Predicate: p, Window: w})
//	bistream.New(p, bistream.WithWindow(w), bistream.WithJoiners(4, 4))
func New(config any, opts ...Option) (*Engine, error) {
	var cfg Config
	switch c := config.(type) {
	case Config:
		cfg = c
	case *Config:
		cfg = *c
	case Predicate:
		cfg.Predicate = c
	case nil:
		return nil, fmt.Errorf("bistream: nil config")
	default:
		return nil, fmt.Errorf("bistream: config must be a Config or a Predicate, got %T", config)
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.New(cfg)
}

// Relation identifies one of the two streaming relations.
type Relation = tuple.Relation

// The two streaming relations.
const (
	R = tuple.R
	S = tuple.S
)

// Tuple is one streaming item.
type Tuple = tuple.Tuple

// Value is a dynamically typed attribute value.
type Value = tuple.Value

// JoinResult is one matched (r, s) pair.
type JoinResult = tuple.JoinResult

// NewTuple allocates a tuple; pass seq 0 to let the engine assign one.
func NewTuple(rel Relation, seq uint64, tsMillis int64, values ...Value) *Tuple {
	return tuple.New(rel, seq, tsMillis, values...)
}

// Int wraps an integer attribute value.
func Int(v int64) Value { return tuple.Int(v) }

// Float wraps a float attribute value.
func Float(v float64) Value { return tuple.Float(v) }

// String wraps a string attribute value.
func String(v string) Value { return tuple.String(v) }

// Predicate decides whether an R tuple joins with an S tuple and drives
// the engine's routing and indexing strategy.
type Predicate = predicate.Predicate

// Equi builds the equality predicate R[rAttr] = S[sAttr]. Equi-joins
// are hash-partitionable: the engine defaults to hash routing, sending
// each tuple to exactly one joiner per side.
func Equi(rAttr, sAttr int) Predicate { return predicate.NewEqui(rAttr, sAttr) }

// Band builds |R[rAttr] - S[sAttr]| <= width over numeric attributes.
// Band joins use the random (broadcast) routing strategy.
func Band(rAttr, sAttr int, width float64) Predicate {
	return predicate.NewBand(rAttr, sAttr, width)
}

// Comparison operators for Theta.
const (
	LT = predicate.LT
	LE = predicate.LE
	GT = predicate.GT
	GE = predicate.GE
	NE = predicate.NE
)

// Theta builds the inequality predicate R[rAttr] op S[sAttr].
func Theta(rAttr, sAttr int, op predicate.Op) Predicate {
	return predicate.NewTheta(rAttr, sAttr, op)
}

// Func wraps an arbitrary match function; the engine falls back to
// broadcast routing and full-window scans.
func Func(desc string, fn func(r, s *Tuple) bool) Predicate {
	return predicate.NewFunc(desc, fn)
}
