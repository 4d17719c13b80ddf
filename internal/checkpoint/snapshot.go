package checkpoint

import (
	"bistream/internal/dedup"
	"bistream/internal/index"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
)

// Snapshot is everything a joiner core needs to resume after a cold
// restart, captured at one instant under the service mutex (no
// deliveries in flight):
//
//   - Segments: the chained index's contents, one entry per sub-index.
//     All but the last are sealed — immutable since their archive round
//     — which is what makes checkpoints incremental: the Checkpointer
//     writes each sealed segment once and only rewrites the live one.
//   - Frontiers / Pending: the ordering protocol's punctuation
//     watermarks and still-buffered envelopes. Pending envelopes belong
//     to acked deliveries (the ack barrier covers them the moment they
//     are checkpointed), so losing them would lose results.
//   - Dedup: the (relation, seq) filter, so redeliveries of
//     pre-checkpoint tuples are suppressed after restore.
//   - Retry: result frames that failed to publish and are queued for
//     retransmission; their probes are checkpointed (hence acked), so
//     the backlog is the only copy.
type Snapshot struct {
	Rel      tuple.Relation
	JoinerID int32
	// Epoch is the checkpoint round that produced the snapshot
	// (assigned by Save, reported by Recover).
	Epoch     uint64
	Segments  []index.Segment
	Frontiers []protocol.Frontier
	Pending   []protocol.Envelope
	Dedup     dedup.State
	Retry     [][]byte
}

// Tuples returns the total tuple count across segments (metrics).
func (s *Snapshot) Tuples() int {
	n := 0
	for _, seg := range s.Segments {
		n += len(seg.Tuples)
	}
	return n
}
