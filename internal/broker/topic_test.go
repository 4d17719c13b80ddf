package broker

import (
	"strings"
	"testing"
	"testing/quick"
)

// topicMatch is the uncompiled reference: split both sides and match
// word by word, what every publish did before exchanges compiled their
// routes.
func topicMatch(pattern, key string) bool {
	return matchWords(strings.Split(pattern, "."), keyWords(key))
}

func TestTopicMatch(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"a.b.c", "a.b.c", true},
		{"a.b.c", "a.b.d", false},
		{"a.b.c", "a.b", false},
		{"*", "a", true},
		{"*", "a.b", false},
		{"a.*", "a.b", true},
		{"a.*", "a", false},
		{"a.*.c", "a.b.c", true},
		{"a.*.c", "a.b.b.c", false},
		{"#", "", true},
		{"#", "a", true},
		{"#", "a.b.c", true},
		{"a.#", "a", true},
		{"a.#", "a.b.c.d", true},
		{"a.#", "b.a", false},
		{"#.c", "c", true},
		{"#.c", "a.b.c", true},
		{"#.c", "a.b", false},
		{"a.#.c", "a.c", true},
		{"a.#.c", "a.x.y.c", true},
		{"a.#.c", "a.c.x", false},
		{"#.#", "a", true},
		{"*.#", "a.b.c", true},
		{"*.#", "", false},
		{"stream.*.store", "stream.r.store", true},
		{"stream.*.store", "stream.r.join", false},
	}
	for _, c := range cases {
		if got := topicMatch(c.pattern, c.key); got != c.want {
			t.Errorf("topicMatch(%q, %q) = %v, want %v", c.pattern, c.key, got, c.want)
		}
	}
}

func TestTopicMatchHashSupersedesAll(t *testing.T) {
	// "#" must match any key: property-check with random word lists.
	f := func(words []uint8) bool {
		parts := make([]string, len(words))
		for i, w := range words {
			parts[i] = string(rune('a' + w%26))
		}
		return topicMatch("#", strings.Join(parts, "."))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopicMatchExactSelfMatch(t *testing.T) {
	f := func(words []uint8) bool {
		if len(words) == 0 {
			return true
		}
		parts := make([]string, len(words))
		for i, w := range words {
			parts[i] = string(rune('a' + w%26))
		}
		key := strings.Join(parts, ".")
		return topicMatch(key, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidatePattern(t *testing.T) {
	valid := []string{"a", "a.b", "*", "#", "a.*.b", "a.#", "#.#"}
	for _, p := range valid {
		if err := validatePattern(p); err != nil {
			t.Errorf("validatePattern(%q) = %v", p, err)
		}
	}
	invalid := []string{"", "a..b", ".a", "a.", "a*", "x#y", "a.b*"}
	for _, p := range invalid {
		if err := validatePattern(p); err == nil {
			t.Errorf("validatePattern(%q) accepted", p)
		}
	}
}

func BenchmarkTopicMatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topicMatch("stream.*.store.#", "stream.r.store.partition.7")
	}
}
