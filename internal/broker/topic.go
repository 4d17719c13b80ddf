package broker

import (
	"fmt"
	"strings"
)

// Topic routing-key patterns follow AMQP: keys are dot-separated words;
// in a binding pattern "*" matches exactly one word and "#" matches zero
// or more words. "stream.r.store" matches the patterns "stream.*.store",
// "stream.#" and "#", but not "stream.*".

// validatePattern rejects malformed binding patterns early so that
// misrouted topologies fail at Bind time rather than silently dropping
// messages.
func validatePattern(pattern string) error {
	if pattern == "" {
		return fmt.Errorf("broker: empty topic pattern")
	}
	for _, w := range strings.Split(pattern, ".") {
		if w == "" {
			return fmt.Errorf("broker: topic pattern %q has empty word", pattern)
		}
		if strings.ContainsAny(w, "*#") && w != "*" && w != "#" {
			return fmt.Errorf("broker: topic pattern %q mixes wildcard and text in word %q", pattern, w)
		}
	}
	return nil
}

// keyWords splits a routing key into its words; the empty key has zero
// words, not one empty word.
func keyWords(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, ".")
}

// matchWords reports whether the key's words match the pattern's. It
// runs a two-pointer match with backtracking over "#", equivalent to
// the classic glob algorithm, in O(len(p) * len(k)) worst case and O(n)
// for patterns without "#".
func matchWords(p, k []string) bool {
	pi, ki := 0, 0
	starP, starK := -1, -1 // position of last '#' in p and the k index tried
	for ki < len(k) {
		switch {
		// The "#" case must precede the literal comparison: a key whose
		// word is the literal text "#" would otherwise consume the
		// pattern's wildcard as an exact match and break backtracking.
		case pi < len(p) && p[pi] == "#":
			starP, starK = pi, ki
			pi++
		case pi < len(p) && (p[pi] == "*" || p[pi] == k[ki]):
			pi++
			ki++
		case starP >= 0:
			// Extend the last '#' by one more word.
			starK++
			pi = starP + 1
			ki = starK
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == "#" {
		pi++
	}
	return pi == len(p)
}

// maxCompiledRoutes bounds an exchange's compiled route table. The
// engine publishes under a handful of keys per exchange; a publisher
// that invents keys without end (per-attempt migration keys) makes the
// table start over instead of growing with it.
const maxCompiledRoutes = 1024

// targets returns the queues a message published under key is enqueued
// to, in binding order (a queue bound by two matching patterns appears
// twice and receives two copies). The slice is shared and read-only.
//
// This is the exchange's compiled route table: the first publish under
// a key matches it against every binding — topic patterns were split
// into words once, at Bind — and files the result under the key; every
// later publish is one map read that splits and allocates nothing. Any
// change to the bindings (Bind, queue deletion) empties the table.
func (ex *exchange) targets(key string) []*queue {
	if ex.kind == Fanout {
		key = "" // every key routes alike: one table entry
	}
	ex.mu.RLock()
	ts, ok := ex.routes[key]
	ex.mu.RUnlock()
	if ok {
		return ts
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ts, ok := ex.routes[key]; ok {
		return ts
	}
	ts = ex.match(key)
	if ex.routes == nil || len(ex.routes) >= maxCompiledRoutes {
		ex.routes = make(map[string][]*queue)
	}
	// Cloned: the caller's key may alias a network buffer.
	ex.routes[strings.Clone(key)] = ts
	return ts
}

// match evaluates key against every binding, the uncompiled reference
// the route table is filled from. Called with ex.mu held.
func (ex *exchange) match(key string) []*queue {
	var words []string
	if ex.kind == Topic {
		words = keyWords(key)
	}
	var ts []*queue
	for _, bd := range ex.bindings {
		var ok bool
		switch ex.kind {
		case Fanout:
			ok = true
		case Direct:
			ok = bd.key == key
		default:
			ok = matchWords(bd.words, words)
		}
		if ok {
			ts = append(ts, bd.q)
		}
	}
	return ts
}
