package bistream

import (
	"time"

	"bistream/internal/broker"
	"bistream/internal/metrics"
)

// Option adjusts one Config field. Options are applied in order after
// the base configuration is resolved, so a later option wins over an
// earlier one and over the corresponding Config field.
type Option func(*Config)

// WithWindow sets the sliding window span.
func WithWindow(span time.Duration) Option {
	return func(c *Config) { c.Window = span; c.FullHistory = false }
}

// WithFullHistory runs the join over the entire accumulated streams:
// nothing expires and joiner groups cannot scale in.
func WithFullHistory() Option {
	return func(c *Config) { c.FullHistory = true; c.Window = 0 }
}

// WithJoiners sizes the two joiner groups (the biclique's vertex sets).
func WithJoiners(r, s int) Option {
	return func(c *Config) { c.RJoiners, c.SJoiners = r, s }
}

// WithRouters sets the number of router instances.
func WithRouters(n int) Option {
	return func(c *Config) { c.Routers = n }
}

// WithSubgroups sets the per-relation routing strategy: 1 = random
// (broadcast) routing, the group size = pure hash partitioning, in
// between = the subgroup hybrid.
func WithSubgroups(r, s int) Option {
	return func(c *Config) { c.RSubgroups, c.SSubgroups = r, s }
}

// WithArchivePeriod sets the chained index's sub-index span P.
func WithArchivePeriod(p time.Duration) Option {
	return func(c *Config) { c.ArchivePeriod = p }
}

// WithShards sets the number of per-core store shards each joiner
// partitions its window into (0 = GOMAXPROCS). One shard disables the
// parallel fan-out, useful for single-core deployments and as the
// baseline in scaling measurements.
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithPunctuationInterval paces the tuple ordering protocol's signals.
func WithPunctuationInterval(d time.Duration) Option {
	return func(c *Config) { c.PunctuationInterval = d }
}

// WithOnResult delivers every join result synchronously to fn instead
// of the Results channel. As on the channel, the result's tuples are
// carved out of slab chunks shared by hundreds of tuples, so an
// application that keeps a sparse subset of results pins those chunks
// and should copy what it keeps.
func WithOnResult(fn func(JoinResult)) Option {
	return func(c *Config) { c.OnResult = fn }
}

// WithBroker runs the engine against an external broker client (e.g. a
// wire.Client connected to brokerd) instead of a private in-process
// broker.
func WithBroker(client broker.Client) Option {
	return func(c *Config) { c.Broker = client }
}

// WithContRand enables frequency-aware routing for partitionable
// predicates; hotFraction <= 0 keeps the default promotion threshold.
func WithContRand(hotFraction float64) Option {
	return func(c *Config) { c.ContRand = true; c.HotFraction = hotFraction }
}

// WithMetrics registers every tier's instruments in reg instead of a
// fresh private registry — the way to aggregate several engines, or an
// engine plus application instruments, into one scrape.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithMetricsAddr serves the observability endpoints (/metrics,
// /debug/vars, /debug/pprof) on addr while the engine runs. ":0" picks
// a free port, reported by Engine.MetricsAddr.
func WithMetricsAddr(addr string) Option {
	return func(c *Config) { c.MetricsAddr = addr }
}

// WithTraceSample samples one in every n ingested tuples for per-stage
// latency tracing; n < 0 disables tracing, n == 0 keeps the default.
func WithTraceSample(n int) Option {
	return func(c *Config) { c.TraceSample = n }
}

// WithEntryBound caps the entry queue's backlog, so Ingest blocks (and
// IngestContext cancels) under router overload instead of buffering
// without limit.
func WithEntryBound(n int) Option {
	return func(c *Config) { c.EntryBound = n }
}
