package broker

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// FuzzTopicMatch checks the pattern matcher never panics and respects
// two invariants on arbitrary inputs — every valid pattern matches
// itself when wildcard-free, and "#" matches every key — and that an
// exchange's compiled route table agrees with matchWords evaluated
// afresh over the live bindings, before and after the bindings change
// (further Binds, then the first queue's deletion).
func FuzzTopicMatch(f *testing.F) {
	f.Add("a.*.c", "a.b.c")
	f.Add("#", "")
	f.Add("a.#.b", "a.x.y.b")
	f.Add("*.*", "x.y")
	f.Fuzz(func(t *testing.T, pattern, key string) {
		_ = topicMatch(pattern, key) // must not panic
		if !topicMatch("#", key) {
			t.Fatalf("# failed to match %q", key)
		}
		if validatePattern(key) == nil && !strings.ContainsAny(key, "*#") {
			if !topicMatch(key, key) {
				t.Fatalf("literal key %q does not match itself", key)
			}
		}

		b := New(nil)
		defer b.Close()
		mustNil(t, b.DeclareExchange("ex", Topic))
		bound := map[string][]string{} // queue → patterns, in bind order
		var order []string
		bind := func(q, p string) {
			if b.DeclareQueue(q, QueueOptions{}) != nil || b.Bind(q, "ex", p) != nil {
				return // invalid pattern: rejected, not bound
			}
			for _, have := range bound[q] {
				if have == p {
					return // idempotent re-bind
				}
			}
			bound[q] = append(bound[q], p)
			order = append(order, q+"\x00"+p)
		}
		check := func(stage string) {
			var want []string
			for _, qp := range order {
				q, p, _ := strings.Cut(qp, "\x00")
				if _, live := bound[q]; live && matchWords(strings.Split(p, "."), keyWords(key)) {
					want = append(want, q)
				}
			}
			ex := b.exchanges["ex"]
			for pass := 0; pass < 2; pass++ { // compile, then the table hit
				var got []string
				for _, q := range ex.targets(key) {
					got = append(got, q.name)
				}
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("%s pass %d: key %q routes to %v, matchWords says %v (bindings %v)",
						stage, pass, key, got, want, order)
				}
			}
		}
		bind("q1", pattern)
		bind("q2", "#")
		check("bound")
		bind("q3", key) // a literal binding, where the key is a valid pattern
		bind("q1", "*.#")
		check("re-bound")
		mustNil(t, b.DeleteQueue("q1"))
		delete(bound, "q1")
		check("unbound")
	})
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// fuzzFrame builds a well-formed segment frame for the fuzz corpus.
func fuzzFrame(lsn uint64, rec []byte) []byte {
	payload := binary.AppendUvarint(nil, lsn)
	payload = append(payload, rec...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, segCRC))
	return append(out, payload...)
}

// FuzzSegmentRecord throws arbitrary bytes at the segment-record
// decoder: it must never panic, and any record it does accept must
// survive the state-builder (which in turn must not panic on arbitrary
// record payloads). This is the decoder every broker restart and every
// replication snapshot runs over on-disk bytes.
func FuzzSegmentRecord(f *testing.F) {
	f.Add(fuzzFrame(1, []byte{recDeclareExchange, 2, 'e', 'x', byte(Topic)}))
	f.Add(fuzzFrame(7, append(appendString([]byte{recEnqueue}, "q"), 1)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(append(fuzzFrame(2, []byte{recSettle, 1, 'q', 3}), 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		sb := newStateBuilder()
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			lsn, rec, err := readSegRecord(r)
			if err != nil {
				break
			}
			if len(rec) > len(data) {
				t.Fatalf("decoded record longer than input: %d > %d", len(rec), len(data))
			}
			_ = lsn
			sb.apply(rec)
		}
		sb.finish()
	})
}
