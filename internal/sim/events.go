package sim

import "time"

// The discrete-event run loop schedules virtual-time events instead of
// inspecting every quantum for boundaries. Event kinds fall into two
// groups:
//
//   - Spine events live in the run loop's own queue: the end of the run,
//     trace-sample boundaries, and the scheduled workload switch.
//   - Volatile events are owned by other subsystems that already index
//     them — the virtual clock's task deadlines (control-loop ticks) and
//     the machine's configuration settle expiries — or are discovered by
//     scanning the load profile (admission edges). The stretch planner
//     min-merges them with the stretch horizon instead of mirroring them
//     into the queue, so no state is duplicated.
//
// Worker wakeups, query completions, and message deliveries are *not*
// scheduled individually: they happen inside active quanta, which the
// engine processes whole so the per-quantum floating-point accumulation
// (energy, busy seconds) keeps its exact grouping. See DESIGN.md §15.
type eventKind uint8

const (
	// evEnd marks the end of the load profile.
	evEnd eventKind = iota
	// evSample marks a trace-sample boundary (nextSample in the quantum
	// loop). Boundaries are pushed one at a time: each firing schedules
	// its successor, so the queue holds at most one.
	evSample
	// evSwitch marks the scheduled workload switch (Options.SwitchAt).
	evSwitch
)

// event is one scheduled occurrence. Nodes are pooled on the queue's
// freelist, so steady-state push/pop traffic allocates nothing.
type event struct {
	at   time.Duration
	seq  uint64 // insertion order, the deterministic tie-break
	kind eventKind
	next *event // freelist link (unused while queued)
}

// eventQueue is a binary min-heap of events ordered by (at, seq): earlier
// virtual time first, and among simultaneous events, insertion order. The
// secondary key makes pop order a pure function of the push sequence —
// no pointer values or map iteration can leak into scheduling, which the
// determinism digest depends on.
type eventQueue struct {
	heap []*event
	free *event
	seq  uint64
}

// before is the strict weak ordering of the heap.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push schedules an event.
//
//ecllint:hotpath event scheduling runs on the simulation run loop
func (q *eventQueue) push(at time.Duration, kind eventKind) {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		//ecllint:allow hotpath freelist growth is amortized; steady state recycles popped nodes
		e = &event{}
	}
	e.at, e.kind, e.seq = at, kind, q.seq
	q.seq++
	//ecllint:allow hotpath heap growth is amortized; the spine holds a handful of events
	q.heap = append(q.heap, e)
	// Sift up.
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.heap[i].before(q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

// pop removes and returns the earliest event. The node is recycled onto
// the freelist before returning, so callers must copy the fields they
// need — which pop already does by returning them by value.
//
//ecllint:hotpath event dispatch runs on the simulation run loop
func (q *eventQueue) pop() (at time.Duration, kind eventKind, ok bool) {
	n := len(q.heap)
	if n == 0 {
		return 0, 0, false
	}
	top := q.heap[0]
	at, kind = top.at, top.kind
	top.next = q.free
	q.free = top
	q.heap[0] = q.heap[n-1]
	q.heap[n-1] = nil
	q.heap = q.heap[:n-1]
	// Sift down.
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.heap[l].before(q.heap[min]) {
			min = l
		}
		if r < n && q.heap[r].before(q.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
	return at, kind, true
}

// peek returns the earliest event's time without removing it.
func (q *eventQueue) peek() (at time.Duration, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return len(q.heap) }
