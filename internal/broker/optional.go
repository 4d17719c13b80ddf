package broker

import "context"

// Optional capabilities of a Client or Consumer, each with one shared
// fallback so services stay transport-agnostic: the in-process Broker,
// wire.Client and their consumers implement all of them (over the wire
// a batch is one frame and one round trip); the fault-injecting
// faults.Client and its consumers are driven one operation at a time.

// ContextPublisher is the optional Client capability of publishing with
// cancellation: a publish blocked on a full (MaxLen-bounded) queue
// returns ctx.Err() when the context is done instead of waiting for
// space. The in-process Broker implements it in full; wire.Client
// honours ctx until the request is on its way (the server cannot be told
// to stop); clients without it are used via the same pre-publish check.
type ContextPublisher interface {
	PublishContext(ctx context.Context, exchange, routingKey string, headers map[string]string, body []byte) error
}

// Publication is one message of a PublishBatch: the arguments of one
// Publish call.
type Publication struct {
	Exchange   string
	RoutingKey string
	Headers    map[string]string
	Body       []byte
}

// BatchPublisher is the optional Client capability of publishing a
// slice of messages in one call. Messages are published in slice order
// and each means exactly what its own Publish would; the call returns
// how many leading publications were published in full, and the error
// that stopped it short of len(pubs).
type BatchPublisher interface {
	PublishBatch(ctx context.Context, pubs []Publication) (int, error)
}

// PublishBatch publishes pubs in order through the client's batch path
// when it has one, and one Publish (PublishContext where offered) per
// message otherwise. It returns how many leading publications were
// published and the error that stopped it.
func PublishBatch(ctx context.Context, c Client, pubs []Publication) (int, error) {
	if bp, ok := c.(BatchPublisher); ok {
		return bp.PublishBatch(ctx, pubs)
	}
	cp, _ := c.(ContextPublisher)
	for i := range pubs {
		p := &pubs[i]
		var err error
		if cp != nil {
			err = cp.PublishContext(ctx, p.Exchange, p.RoutingKey, p.Headers, p.Body)
		} else if err = ctx.Err(); err == nil {
			err = c.Publish(p.Exchange, p.RoutingKey, p.Headers, p.Body)
		}
		if err != nil {
			return i, err
		}
	}
	return len(pubs), nil
}

// BatchAcker is the optional Consumer capability of settling a whole
// batch of deliveries under one lock acquisition.
type BatchAcker interface {
	AckBatch(tags []uint64) error
}

// AckBatch acknowledges every tag, through the consumer's batch path
// when it has one and tag by tag otherwise. A failed ack does not stop
// the rest from settling; the first error is returned.
func AckBatch(cons Consumer, tags []uint64) error {
	if len(tags) == 0 {
		return nil
	}
	if ba, ok := cons.(BatchAcker); ok {
		return ba.AckBatch(tags)
	}
	var first error
	for _, tag := range tags {
		if err := cons.Ack(tag); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Drain appends first, then every delivery already waiting on ch, to
// buf until buf is full (its capacity is the batch cap). It never waits
// for a delivery: consume loops block for one, then batch whatever
// queued up behind it while they were busy. open is false once ch is
// closed.
func Drain(ch <-chan Delivery, first Delivery, buf []Delivery) (batch []Delivery, open bool) {
	batch = append(buf[:0], first)
	for len(batch) < cap(batch) {
		select {
		case d, ok := <-ch:
			if !ok {
				return batch, false
			}
			batch = append(batch, d)
		default:
			return batch, true
		}
	}
	return batch, true
}
