// Package topo centralizes the broker topology naming shared by the
// router and joiner services, mirroring §4.3 of the source text: an
// entry exchange for raw tuples, and a store + join exchange pair per
// relation, with member-addressed queues.
package topo

import (
	"fmt"

	"bistream/internal/broker"
	"bistream/internal/tuple"
)

// Exchange and queue naming. Exchanges are topic exchanges; routing keys
// address either a specific joiner member ("m.<id>") or every bound
// queue ("punct" is bound by all joiner queues so punctuation signals
// reach everyone through the same queues as tuples, preserving pairwise
// FIFO).
const (
	// EntryExchange receives raw tuples from stream sources.
	EntryExchange = "tuple.exchange"
	// EntryQueue is the router group's competing-consumer queue.
	EntryQueue = "tuple.exchange.routergroup"
	// EntryKey routes every raw tuple to the router group.
	EntryKey = "t"

	// PunctKey is the routing key joiner queues bind in addition to
	// their member key, so punctuations broadcast to all of them.
	PunctKey = "punct"

	// ResultExchange receives join results; sinks bind their own queues.
	ResultExchange = "result.exchange"
	// ResultKey routes every join result.
	ResultKey = "r"
)

// StoreExchange names the exchange carrying rel tuples to their own
// side's joiners for storage ("Rstore.exchange").
func StoreExchange(rel tuple.Relation) string {
	return rel.String() + "store.exchange"
}

// JoinExchange names the exchange carrying rel tuples to the opposite
// side's joiners for join processing ("Rjoin.exchange").
func JoinExchange(rel tuple.Relation) string {
	return rel.String() + "join.exchange"
}

// MemberKey addresses the queue of one joiner member.
func MemberKey(member int32) string { return fmt.Sprintf("m.%d", member) }

// StoreQueue names joiner member's store-stream queue on its own
// relation's store exchange.
func StoreQueue(rel tuple.Relation, member int32) string {
	return fmt.Sprintf("%s.q.%d", StoreExchange(rel), member)
}

// JoinQueue names joiner member's join-stream queue. A joiner of
// relation rel consumes the opposite relation's join exchange.
func JoinQueue(rel tuple.Relation, member int32) string {
	return fmt.Sprintf("%s.q.%d", JoinExchange(rel.Opposite()), member)
}

// Declare creates the shared exchanges and the entry queue. It is
// idempotent; every service calls it at startup so processes may come
// up in any order.
func Declare(client broker.Client) error {
	if err := client.DeclareExchange(EntryExchange, broker.Topic); err != nil {
		return err
	}
	// The entry queue is durable (the binder's durable consumer-group
	// subscription): tuples published while no router is up survive a
	// durable broker's restart.
	if err := client.DeclareQueue(EntryQueue, broker.QueueOptions{Durable: true}); err != nil {
		return err
	}
	if err := client.Bind(EntryQueue, EntryExchange, EntryKey); err != nil {
		return err
	}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := client.DeclareExchange(StoreExchange(rel), broker.Topic); err != nil {
			return err
		}
		if err := client.DeclareExchange(JoinExchange(rel), broker.Topic); err != nil {
			return err
		}
	}
	return client.DeclareExchange(ResultExchange, broker.Topic)
}
