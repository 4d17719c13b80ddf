package broker

import "bistream/internal/metrics"

// RegisterMetrics attaches the broker to a metric registry via a
// collector: every gather enumerates the live queues and emits
// per-queue depth/unacked gauges plus broker-wide totals. Queue names
// are dynamic (members come and go with scale in/out), which is exactly
// what a collector — unlike fixed named instruments — handles.
//
// Emitted series:
//
//	broker.queue.<name>.depth     gauge   ready messages
//	broker.queue.<name>.unacked   gauge   delivered, unacknowledged
//	broker.queue.depth            gauge   total ready across queues
//	broker.queue.unacked          gauge   total unacknowledged
//	broker.published              counter total messages routed in
//	broker.delivered              counter total messages handed out
//	broker.acked                  counter total settlements
//	broker.redelivered            counter messages requeued after delivery
//	broker.dead_lettered          counter messages moved to the dead queue
//	broker.queues                 gauge   declared queue count
func RegisterMetrics(b *Broker, reg *metrics.Registry) {
	reg.AddCollector(func(emit func(metrics.Sample)) {
		var depth, unacked int64
		var published, delivered, acked, redelivered, deadLettered int64
		names := b.Queues()
		for _, name := range names {
			st, err := b.QueueStats(name)
			if err != nil {
				continue
			}
			emit(metrics.Sample{Name: "broker.queue." + name + ".depth",
				Kind: metrics.KindGaugeMetric, Value: float64(st.Ready)})
			emit(metrics.Sample{Name: "broker.queue." + name + ".unacked",
				Kind: metrics.KindGaugeMetric, Value: float64(st.Unacked)})
			depth += int64(st.Ready)
			unacked += int64(st.Unacked)
			published += st.Published
			delivered += st.Delivered
			acked += st.Acked
			redelivered += st.Redelivered
			deadLettered += st.DeadLettered
		}
		emit(metrics.Sample{Name: "broker.queue.depth", Kind: metrics.KindGaugeMetric, Value: float64(depth)})
		emit(metrics.Sample{Name: "broker.queue.unacked", Kind: metrics.KindGaugeMetric, Value: float64(unacked)})
		emit(metrics.Sample{Name: "broker.published", Kind: metrics.KindCounterMetric, Value: float64(published)})
		emit(metrics.Sample{Name: "broker.delivered", Kind: metrics.KindCounterMetric, Value: float64(delivered)})
		emit(metrics.Sample{Name: "broker.acked", Kind: metrics.KindCounterMetric, Value: float64(acked)})
		emit(metrics.Sample{Name: "broker.redelivered", Kind: metrics.KindCounterMetric, Value: float64(redelivered)})
		emit(metrics.Sample{Name: "broker.dead_lettered", Kind: metrics.KindCounterMetric, Value: float64(deadLettered)})
		emit(metrics.Sample{Name: "broker.queues", Kind: metrics.KindGaugeMetric, Value: float64(len(names))})
	})
}
