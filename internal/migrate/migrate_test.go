package migrate

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bistream/internal/checkpoint"
	"bistream/internal/index"
	"bistream/internal/tuple"
)

// fakePeer is a donor whose frontier and result backlog the test
// controls.
type fakePeer struct {
	frontier atomic.Uint64
	backlog  atomic.Int64
	snap     *checkpoint.Snapshot
}

func (p *fakePeer) ExportIfDrained(minStamp uint64) (*checkpoint.Snapshot, error) {
	if p.frontier.Load() < minStamp {
		return nil, fmt.Errorf("not drained")
	}
	return p.snap, nil
}

func (p *fakePeer) ExportKeyIfDrained(uint64, uint64) ([]*tuple.Tuple, error) {
	return nil, errors.New("not a key donor")
}

func (p *fakePeer) Frontier() uint64  { return p.frontier.Load() }
func (p *fakePeer) RetryBacklog() int { return int(p.backlog.Load()) }

func mkTuple(seq uint64, ts int64) *tuple.Tuple {
	return tuple.New(tuple.R, seq, ts, tuple.Int(int64(seq%4)))
}

func donorSnapshot() *checkpoint.Snapshot {
	var archived, live []*tuple.Tuple
	for i := uint64(1); i <= 20; i++ {
		archived = append(archived, mkTuple(i, int64(i)))
	}
	for i := uint64(21); i <= 30; i++ {
		live = append(live, mkTuple(i, int64(i)))
	}
	return &checkpoint.Snapshot{
		Rel:      tuple.R,
		JoinerID: 7,
		Segments: []index.Segment{
			{ID: 1, Origin: index.OriginLocal, Sealed: true, MinTS: 1, MaxTS: 20, Tuples: archived},
			{ID: 2, Origin: index.OriginLocal, Sealed: false, MinTS: 21, MaxTS: 30, Tuples: live},
			{ID: 3, Origin: index.OriginLocal, Sealed: true, Tuples: nil}, // empty: skipped
		},
	}
}

// memberMove builds a scale-in Move against peer: drain barrier 100,
// cut-over cursor 200, two survivors chosen by key parity.
func memberMove(t *testing.T, peer *fakePeer) (Move, map[int32][]index.Segment) {
	t.Helper()
	imported := make(map[int32][]index.Segment)
	cut := false
	m := Move{
		Rel:    tuple.R,
		Origin: 7,
		Donor:  func() Peer { return peer },
		Export: func(p Peer) (map[int32][]index.Segment, error) {
			snap, err := p.ExportIfDrained(100)
			if err != nil {
				return nil, err
			}
			return MemberGrafts(snap, 7, func(tp *tuple.Tuple) int32 {
				return int32(tp.Value(0).Hash() % 2)
			}), nil
		},
		Import: func(member int32, segs []index.Segment) error {
			imported[member] = append(imported[member], segs...)
			return nil
		},
		Cut:     func() { cut = true },
		Cursor:  func() uint64 { return 200 },
		Timeout: 10 * time.Second,
	}
	t.Cleanup(func() {
		if !cut && !t.Failed() {
			t.Error("Cut was never called")
		}
	})
	return m, imported
}

// TestRunMovesEverySegment checks the happy path: the donor drains and
// every non-empty segment (including the live one) is grafted, sealed
// under the donor's id.
func TestRunMovesEverySegment(t *testing.T) {
	peer := &fakePeer{snap: donorSnapshot()}
	peer.frontier.Store(250) // past both barriers
	m, imported := memberMove(t, peer)

	moved, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 30 {
		t.Errorf("moved %d tuples, want 30", moved)
	}
	total := 0
	for member, segs := range imported {
		for _, s := range segs {
			if !s.Sealed || s.Origin != 7 {
				t.Errorf("member %d got segment id=%d sealed=%v origin=%d", member, s.ID, s.Sealed, s.Origin)
			}
			total += len(s.Tuples)
		}
	}
	if total != 30 {
		t.Errorf("grafts hold %d tuples, want 30", total)
	}
	if len(imported) != 2 {
		t.Errorf("grafted onto %d members, want 2", len(imported))
	}
}

// TestRunWaitsForDrainBarrier checks that Run blocks until the donor's
// frontier passes the drain barrier rather than exporting early.
func TestRunWaitsForDrainBarrier(t *testing.T) {
	peer := &fakePeer{snap: donorSnapshot()}
	peer.frontier.Store(50) // below the drain barrier of 100
	m, _ := memberMove(t, peer)

	go func() {
		time.Sleep(30 * time.Millisecond)
		peer.frontier.Store(300)
	}()
	start := time.Now()
	if _, err := Run(m); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("Run returned after %v, before the donor drained", d)
	}
}

// TestRunFailsWhenDonorDisappears checks the error path: a Donor
// resolver returning nil fails the run instead of hanging.
func TestRunFailsWhenDonorDisappears(t *testing.T) {
	m := Move{
		Rel:     tuple.R,
		Origin:  7,
		Donor:   func() Peer { return nil },
		Export:  func(Peer) (map[int32][]index.Segment, error) { return nil, nil },
		Import:  func(int32, []index.Segment) error { return nil },
		Cursor:  func() uint64 { return 200 },
		Timeout: time.Second,
	}
	if _, err := Run(m); err == nil {
		t.Fatal("Run succeeded with no donor")
	}
}

// TestRunCutOverOrder pins the phase order: Export is retried until the
// donor drains, Cut runs before the cut-over cursor is read, and
// Release runs only once the donor's frontier passed that cursor with
// an empty result backlog, whichever of the two the donor reaches
// first. A Release error fails the run.
func TestRunCutOverOrder(t *testing.T) {
	for _, tc := range []struct {
		backlogFirst bool
		releaseErr   error
	}{{false, nil}, {true, nil}, {false, errors.New("drop failed")}} {
		peer := &fakePeer{}
		peer.backlog.Store(2)
		var (
			events  []string
			exports int
		)
		log := func(ev string) { events = append(events, ev) }
		m := Move{
			Rel:    tuple.S,
			Origin: 3,
			Donor:  func() Peer { return peer },
			Export: func(p Peer) (map[int32][]index.Segment, error) {
				exports++
				if exports < 3 {
					return nil, errors.New("not drained")
				}
				log("export")
				return map[int32][]index.Segment{1: {sealed(1, 3, []*tuple.Tuple{mkTuple(1, 1)})}}, nil
			},
			Import: func(int32, []index.Segment) error { log("import"); return nil },
			Cut:    func() { log("cut") },
			Cursor: func() uint64 {
				log("cursor")
				// The donor catches up in two steps, frontier and result
				// backlog in either order; Release must wait for both.
				steps := []func(){func() { peer.frontier.Store(200) }, func() { peer.backlog.Store(0) }}
				if tc.backlogFirst {
					steps[0], steps[1] = steps[1], steps[0]
				}
				go func() {
					for _, step := range steps {
						time.Sleep(15 * time.Millisecond)
						step()
					}
				}()
				return 200
			},
			Release: func() error {
				if f, b := peer.Frontier(), peer.RetryBacklog(); f < 200 || b != 0 {
					t.Errorf("Release ran at frontier %d, backlog %d", f, b)
				}
				log("release")
				return tc.releaseErr
			},
			Timeout: 10 * time.Second,
		}
		moved, err := Run(m)
		if tc.releaseErr != nil {
			if !errors.Is(err, tc.releaseErr) {
				t.Errorf("Run with failing Release returned %v, want %v", err, tc.releaseErr)
			}
		} else if err != nil {
			t.Fatal(err)
		} else if moved != 1 {
			t.Errorf("moved %d tuples, want 1", moved)
		}
		if exports != 3 {
			t.Errorf("Export called %d times, want 3 (retried until drained)", exports)
		}
		if want := []string{"export", "import", "cut", "cursor", "release"}; !reflect.DeepEqual(events, want) {
			t.Errorf("phase order %v, want %v", events, want)
		}
	}
}

// TestMemberGrafts checks the scale-in placement: empty segments are
// skipped, the rest are renumbered 1..n under the donor's origin and
// sealed with exact timestamp bounds, each segment yields at most one
// graft per recipient, and assign sees tuples in segment and tuple
// order.
func TestMemberGrafts(t *testing.T) {
	seg := func(id uint64, sealed bool, ts ...int64) index.Segment {
		s := index.Segment{ID: id, Origin: index.OriginLocal, Sealed: sealed}
		for _, v := range ts {
			s.Tuples = append(s.Tuples, mkTuple(uint64(v), v))
		}
		return s
	}
	snap := &checkpoint.Snapshot{Segments: []index.Segment{
		seg(40, true, 5, 1, 9, 3),
		seg(41, true), // empty: skipped, takes no id
		seg(42, true, 12, 10),
		seg(43, false, 20, 22, 21), // the live segment moves too
	}}
	var order []int64
	grafts := MemberGrafts(snap, 7, func(tp *tuple.Tuple) int32 {
		order = append(order, tp.TS)
		return int32(tp.TS % 2) // odd TS → member 1, even → member 0
	})
	if want := []int64{5, 1, 9, 3, 12, 10, 20, 22, 21}; !reflect.DeepEqual(order, want) {
		t.Errorf("assign order %v, want %v", order, want)
	}
	type graft struct {
		id           uint64
		minTS, maxTS int64
		n            int
	}
	want := map[int32][]graft{
		1: {{1, 1, 9, 4}, {3, 21, 21, 1}},
		0: {{2, 10, 12, 2}, {3, 20, 22, 2}},
	}
	got := make(map[int32][]graft)
	for member, segs := range grafts {
		for _, s := range segs {
			if !s.Sealed || s.Origin != 7 {
				t.Errorf("member %d segment %d: sealed=%v origin=%d", member, s.ID, s.Sealed, s.Origin)
			}
			got[member] = append(got[member], graft{s.ID, s.MinTS, s.MaxTS, len(s.Tuples)})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grafts %v, want %v", got, want)
	}
}

// TestKeyGrafts checks the hot-key placement: the pile is dealt
// round-robin across the recipients, one segment each with id
// attempt<<16 | n, and a recipient with nothing to receive gets no
// segment.
func TestKeyGrafts(t *testing.T) {
	var pile []*tuple.Tuple
	for i := int64(0); i < 7; i++ {
		pile = append(pile, mkTuple(uint64(100+i), 70-i))
	}
	const attempt = 5
	grafts := KeyGrafts(pile, 4, attempt, []int32{8, 2, 6})
	want := map[int32][]uint64{ // recipient → seqs, in deal order
		8: {100, 103, 106},
		2: {101, 104},
		6: {102, 105},
	}
	wantID := map[int32]uint64{8: attempt<<16 | 1, 2: attempt<<16 | 2, 6: attempt<<16 | 3}
	if len(grafts) != len(want) {
		t.Fatalf("grafts for %d recipients, want %d", len(grafts), len(want))
	}
	for member, seqs := range want {
		segs := grafts[member]
		if len(segs) != 1 {
			t.Fatalf("member %d got %d segments, want 1", member, len(segs))
		}
		s := segs[0]
		if s.ID != wantID[member] || s.Origin != 4 || !s.Sealed {
			t.Errorf("member %d segment id=%#x origin=%d sealed=%v, want id=%#x origin=4 sealed",
				member, s.ID, s.Origin, s.Sealed, wantID[member])
		}
		var got []uint64
		for _, tp := range s.Tuples {
			got = append(got, tp.Seq)
		}
		if !reflect.DeepEqual(got, seqs) {
			t.Errorf("member %d got seqs %v, want %v", member, got, seqs)
		}
		if s.MinTS != s.Tuples[len(s.Tuples)-1].TS || s.MaxTS != s.Tuples[0].TS {
			t.Errorf("member %d bounds [%d,%d] wrong", member, s.MinTS, s.MaxTS)
		}
	}

	// Fewer tuples than recipients: the last recipient receives nothing.
	short := KeyGrafts(pile[:2], 4, attempt, []int32{8, 2, 6})
	if _, ok := short[6]; ok || len(short) != 2 {
		t.Errorf("short pile placed on %d recipients (member 6 included: %v), want 2", len(short), ok)
	}
}
