package obs

// Snapshot support: deep copies of the observability state, taken *on the
// simulation thread* at a quantum boundary and handed to consumers on
// other goroutines (the serving layer, a future cluster tier).
//
// The contract has two halves:
//
//   - The copy itself must run on the thread that mutates the original —
//     obs is inside the single-threaded determinism fence and carries no
//     locks, so a snapshot taken concurrently with mutation would be a
//     data race by construction.
//   - Once returned, a snapshot shares no mutable memory with its source:
//     the original can keep mutating on the sim thread while any number
//     of goroutines read the snapshot. TestSnapshotSharesNothing proves
//     this under the race detector.

// Snapshot returns a deep copy of the registry: every counter, gauge, and
// histogram value, the name index, and the kind/help tables. Nil-safe.
func (r *Registry) Snapshot() *Registry {
	if r == nil {
		return nil
	}
	c := NewRegistry()
	c.names = append(c.names, r.names...)
	//ecllint:order-independent building a key-identical map copy; insertion order is unobservable
	for name, k := range r.kinds {
		c.kinds[name] = k
	}
	//ecllint:order-independent building a key-identical map copy; insertion order is unobservable
	for name, h := range r.help {
		c.help[name] = h
	}
	//ecllint:order-independent building a key-identical map copy; insertion order is unobservable
	for name, ctr := range r.counters {
		c.counters[name] = &Counter{v: ctr.v}
	}
	//ecllint:order-independent building a key-identical map copy; insertion order is unobservable
	for name, g := range r.gauges {
		c.gauges[name] = &Gauge{v: g.v}
	}
	//ecllint:order-independent building a key-identical map copy; insertion order is unobservable
	for name, h := range r.histograms {
		c.histograms[name] = &Histogram{
			bounds: append([]float64(nil), h.bounds...),
			counts: append([]uint64(nil), h.counts...),
			sum:    h.sum,
			total:  h.total,
		}
	}
	return c
}

// Snapshot returns a deep copy of the event log: the buffered events
// (Event payloads are values plus immutable strings), the ring state, the
// exact per-type counters, and the sampling state. Nil-safe.
func (l *Log) Snapshot() *Log {
	if l == nil {
		return nil
	}
	c := *l
	c.events = l.events.Clone()
	return &c
}

// Snapshot returns an Observer bundling deep copies of the log, the
// registry, and (when attached) the tracer. Nil-safe.
func (o *Observer) Snapshot() *Observer {
	if o == nil {
		return nil
	}
	return &Observer{
		Log:     o.Log.Snapshot(),
		Metrics: o.Metrics.Snapshot(),
		Trace:   o.Trace.Snapshot(),
		Energy:  o.Energy.Snapshot(),
	}
}
