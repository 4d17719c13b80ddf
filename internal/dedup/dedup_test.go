package dedup

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// contains reports whether k is retained, without recording it.
func contains(s *Set, k Key) bool {
	h := hash(k)
	return s.cur.has(k, h) || s.prev.has(k, h)
}

func TestSeenOrAdd(t *testing.T) {
	s := New(4)
	k := Key{1, 2}
	if s.SeenOrAdd(k) {
		t.Fatal("fresh key reported seen")
	}
	if !s.SeenOrAdd(k) {
		t.Fatal("repeated key not suppressed")
	}
	if s.suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", s.suppressed)
	}
}

func TestRotationBoundsMemory(t *testing.T) {
	s := New(8)
	for i := uint64(0); i < 100; i++ {
		s.SeenOrAdd(Key{i, 0})
	}
	if s.Len() > 16 {
		t.Fatalf("len = %d, want <= 2*cap", s.Len())
	}
	// Recent keys survive a rotation; ancient ones age out.
	if !contains(s, Key{99, 0}) {
		t.Error("most recent key evicted")
	}
	if contains(s, Key{0, 0}) {
		t.Error("ancient key still retained")
	}
}

func TestExplicitRotateAgesEntries(t *testing.T) {
	s := New(1 << 20)
	s.SeenOrAdd(Key{1, 0})
	s.Rotate()
	if !contains(s, Key{1, 0}) {
		t.Error("entry lost after a single rotation")
	}
	s.Rotate()
	if contains(s, Key{1, 0}) {
		t.Error("entry survived two rotations")
	}
	if s.Len() != 0 {
		t.Errorf("len = %d after draining both generations, want 0", s.Len())
	}
}

func TestRetentionAcrossOneRotation(t *testing.T) {
	s := New(4)
	s.SeenOrAdd(Key{1, 1})
	for i := uint64(10); i < 14; i++ { // forces one rotation
		s.SeenOrAdd(Key{i, 0})
	}
	if !contains(s, Key{1, 1}) {
		t.Error("key evicted before two generations elapsed")
	}
}

// TestEpochWrapForgetsOldKeys drives a table's epoch past its maximum.
// Slots written at epoch 1 long before the wrap must not read as
// occupied once the epoch restarts at 1.
func TestEpochWrapForgetsOldKeys(t *testing.T) {
	s := New(64)
	old := []Key{{7, 1}, {7, 2}, {7, 3}, {7, 4}}
	for _, k := range old {
		s.SeenOrAdd(k) // tagged with epoch 1
	}
	// Skip the table holding them to its second-to-last epoch, as ~4
	// billion rotations would: they now read as expired.
	s.cur.epoch = maxEpoch - 1
	s.cur.n = 0
	for _, k := range old {
		if contains(s, k) {
			t.Fatalf("key %v from an expired epoch reads as seen", k)
		}
	}
	preWrap := Key{8, 8}
	s.SeenOrAdd(preWrap) // tagged maxEpoch-1
	s.Rotate()
	s.Rotate() // the table is current again at maxEpoch
	s.SeenOrAdd(Key{9, 9})
	s.Rotate()
	s.Rotate() // wraps
	if s.cur.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.cur.epoch)
	}
	for _, k := range append(old, preWrap, Key{9, 9}) {
		if contains(s, k) {
			t.Errorf("pre-wrap key %v reads as seen", k)
		}
	}
	if s.SeenOrAdd(old[0]) {
		t.Error("pre-wrap key suppressed after the wrap")
	}
	if !s.SeenOrAdd(old[0]) {
		t.Error("key added after the wrap not suppressed")
	}
}

// TestFromStateBeyondCap restores generations larger than Cap, and a
// manifest without a Cap: every key must come back.
func TestFromStateBeyondCap(t *testing.T) {
	var cur, prev []Key
	for i := uint64(0); i < 1000; i++ {
		cur = append(cur, Key{0, i})
		prev = append(prev, Key{1, i})
	}
	for _, capacity := range []int{4, 0} {
		s := FromState(State{Cap: capacity, Suppressed: 3, Cur: cur, Prev: prev})
		if s.Len() != 2000 {
			t.Fatalf("cap %d: len = %d, want 2000", capacity, s.Len())
		}
		for _, k := range append(slices.Clone(cur), prev...) {
			if !contains(s, k) {
				t.Fatalf("cap %d: key %v not restored", capacity, k)
			}
		}
		if capacity == 0 && s.cap != DefaultCap {
			t.Errorf("cap 0 restored as %d, want DefaultCap", s.cap)
		}
		// The oversized current generation rotates on the next insertion.
		s.SeenOrAdd(Key{2, 0})
		if capacity == 4 && contains(s, Key{1, 0}) {
			t.Error("previous generation survived the rotation")
		}
	}
}

// TestDeleteFuncKeepsRetention: a key DeleteFunc keeps in the previous
// generation still expires after one more Rotate.
func TestDeleteFuncKeepsRetention(t *testing.T) {
	s := New(1 << 10)
	s.SeenOrAdd(Key{0, 1})
	s.SeenOrAdd(Key{1, 1})
	s.Rotate()
	s.SeenOrAdd(Key{0, 2})
	s.DeleteFunc(func(k Key) bool { return k[0] == 1 })
	if contains(s, Key{1, 1}) {
		t.Fatal("deleted key still retained")
	}
	if !contains(s, Key{0, 1}) || !contains(s, Key{0, 2}) {
		t.Fatal("kept key lost")
	}
	s.Rotate()
	if contains(s, Key{0, 1}) {
		t.Error("kept previous-generation key survived one more rotation")
	}
	if !contains(s, Key{0, 2}) {
		t.Error("kept current-generation key lost after one rotation")
	}
}

// model is the reference Set: two Go maps under the same rules.
type model struct {
	cap        int
	cur, prev  map[Key]struct{}
	suppressed int64
}

func newModel(cap int) *model {
	return &model{cap: cap, cur: map[Key]struct{}{}, prev: map[Key]struct{}{}}
}

func (m *model) seenOrAdd(k Key) bool {
	_, inCur := m.cur[k]
	_, inPrev := m.prev[k]
	if inCur || inPrev {
		m.suppressed++
		return true
	}
	if len(m.cur) >= m.cap {
		m.rotate()
	}
	m.cur[k] = struct{}{}
	return false
}

func (m *model) rotate() { m.prev, m.cur = m.cur, map[Key]struct{}{} }

type opKind uint8

const (
	opSeenOrAdd opKind = iota
	opRotate
	opDeleteFunc
	opRoundTrip
)

type op struct {
	kind     opKind
	key      Key    // opSeenOrAdd
	mod, rem uint64 // opDeleteFunc deletes keys with key[1]%mod == rem
}

// sameKeys compares a generation's exported keys with a model map.
func sameKeys(got []Key, want map[Key]struct{}) bool {
	if len(got) != len(want) {
		return false
	}
	for _, k := range got {
		if _, ok := want[k]; !ok {
			return false
		}
	}
	return true
}

// checkAgainstModel drives ops through a Set and the model and fails on
// the first answer, Len or export that differs.
func checkAgainstModel(t *testing.T, cap int, ops []op) {
	t.Helper()
	s, m := New(cap), newModel(cap)
	for i, o := range ops {
		switch o.kind {
		case opSeenOrAdd:
			if got, want := s.SeenOrAdd(o.key), m.seenOrAdd(o.key); got != want {
				t.Fatalf("cap %d op %d: SeenOrAdd(%v) = %v, model %v", cap, i, o.key, got, want)
			}
		case opRotate:
			s.Rotate()
			m.rotate()
		case opDeleteFunc:
			del := func(k Key) bool { return k[1]%o.mod == o.rem }
			s.DeleteFunc(del)
			maps.DeleteFunc(m.cur, func(k Key, _ struct{}) bool { return del(k) })
			maps.DeleteFunc(m.prev, func(k Key, _ struct{}) bool { return del(k) })
		case opRoundTrip:
			st := s.Export()
			if st.Cap != cap || st.Suppressed != m.suppressed ||
				!sameKeys(st.Cur, m.cur) || !sameKeys(st.Prev, m.prev) {
				t.Fatalf("cap %d op %d: export differs from the model", cap, i)
			}
			s = FromState(st)
		}
		if s.Len() != len(m.cur)+len(m.prev) {
			t.Fatalf("cap %d op %d (%v): Len = %d, model %d", cap, i, o.kind, s.Len(), len(m.cur)+len(m.prev))
		}
	}
}

// TestSetMatchesModel is the differential test: random op streams over
// caps from 1 to a few thousand, so count rotations fire often.
func TestSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cap := range []int{1, 2, 3, 7, 64, 100, 1000, 4096} {
		for round := 0; round < 4; round++ {
			domain := uint64(3*cap + 8) // a mix of repeats and fresh keys
			ops := make([]op, 20*cap+200)
			for i := range ops {
				switch r := rng.Intn(1000); {
				case r < 2:
					ops[i] = op{kind: opRoundTrip}
				case r < 4:
					mod := uint64(rng.Intn(5) + 2)
					ops[i] = op{kind: opDeleteFunc, mod: mod, rem: uint64(rng.Intn(int(mod)))}
				case r < 10:
					ops[i] = op{kind: opRotate}
				default:
					ops[i] = op{key: Key{uint64(rng.Intn(3)), uint64(rng.Int63n(int64(domain)))}}
				}
			}
			checkAgainstModel(t, cap, ops)
		}
	}
}

// decodeOps turns fuzz input into a cap and an op stream: the first
// byte picks the cap, then each op is a kind byte and two argument
// bytes.
func decodeOps(data []byte) (int, []op) {
	if len(data) == 0 {
		return 1, nil
	}
	cap := 1 + int(data[0])%32
	var ops []op
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		switch b[0] % 16 {
		case 0:
			ops = append(ops, op{kind: opRotate})
		case 1:
			mod := uint64(b[1]%5 + 2)
			ops = append(ops, op{kind: opDeleteFunc, mod: mod, rem: uint64(b[2]) % mod})
		case 2:
			ops = append(ops, op{kind: opRoundTrip})
		default:
			ops = append(ops, op{key: Key{uint64(b[1] >> 6), uint64(b[1]&63)<<8 | uint64(b[2])}})
		}
	}
	return cap, ops
}

// FuzzSet runs the differential check on fuzzer-chosen op streams.
func FuzzSet(f *testing.F) {
	f.Add([]byte{3, 5, 0, 1, 5, 0, 2, 5, 0, 3, 0, 0, 0, 5, 0, 4, 5, 0, 7, 0, 0})
	f.Add([]byte{0, 9, 1, 1, 9, 1, 2, 0, 0, 0, 9, 1, 1, 2, 0, 1, 9, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cap, ops := decodeOps(data)
		checkAgainstModel(t, cap, ops)
	})
}

// TestSeenOrAddAllocations pins the warm path at zero allocations: a
// set at DefaultCap whose tables have reached full size allocates
// nothing per call, across count rotations and a forced Rotate.
func TestSeenOrAddAllocations(t *testing.T) {
	s := New(0)
	var next uint64
	add := func(n int) {
		for i := 0; i < n; i++ {
			next++
			s.SeenOrAdd(Key{next >> 4, next})
		}
	}
	add(3 * DefaultCap) // both tables grown to full size
	allocs := testing.AllocsPerRun(5, func() {
		add(DefaultCap + 1) // crosses a count rotation
		s.SeenOrAdd(Key{next >> 4, next})
		s.Rotate()
	})
	if allocs != 0 {
		t.Fatalf("warm SeenOrAdd allocated %.1f times per run, want 0", allocs)
	}
}

var sinkSeen bool

// BenchmarkSeenOrAdd feeds sink-shaped keys — one left seq paired with
// a run of right seqs, as a hot key's probe produces — into a set at
// DefaultCap, with one repeat in eight to exercise the hit path.
func BenchmarkSeenOrAdd(b *testing.B) {
	s := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		k := Key{n / 16, 1_000_000 + n%1024}
		if i%8 == 7 {
			k = Key{(n - 5) / 16, 1_000_000 + (n-5)%1024}
		}
		sinkSeen = s.SeenOrAdd(k)
	}
}
