// Package vtime provides a virtual clock and deterministic periodic task
// scheduling for the simulation stack.
//
// All components of the reproduction (hardware model, DBMS runtime,
// energy-control loop) are driven by a single virtual clock instead of the
// wall clock. This makes every experiment deterministic and lets a
// "two hour" load profile replay in milliseconds, mirroring how the paper
// replayed a 2 h Twitter load profile within 3 minutes.
package vtime

import (
	"container/heap"
	"fmt"
	"time"
)

// Clock is a virtual clock. The zero value starts at instant 0.
// A Clock is advanced explicitly by the simulation driver; components read
// it through Now. Clock is not safe for concurrent use: the simulation is
// single-threaded by design (see DESIGN.md, decision 1).
type Clock struct {
	now   time.Duration
	tasks taskHeap
	seq   uint64
}

// NewClock returns a clock positioned at virtual instant 0.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time as an offset from instant 0.
func (c *Clock) Now() time.Duration {
	return c.now
}

// Advance moves the clock forward by d, firing any tasks whose deadline is
// reached, in deadline order. Tasks scheduled with the same deadline fire
// in scheduling order. A task may schedule further tasks; tasks scheduled
// during Advance with deadlines inside the advanced window also fire.
// Advance panics if d is negative.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative advance %v", d))
	}
	target := c.now + d
	for len(c.tasks) > 0 && c.tasks[0].at <= target {
		t := heap.Pop(&c.tasks).(*task)
		if t.cancelled {
			continue
		}
		// Time jumps to the task deadline before the task runs, so that
		// the task observes a consistent Now.
		c.now = t.at
		if t.period > 0 && !t.cancelled {
			t.at += t.period
			heap.Push(&c.tasks, t)
		} else {
			t.done = true
		}
		t.fn()
	}
	c.now = target
}

// Task is a handle to a scheduled callback.
type Task struct {
	t *task
}

// Cancel prevents any future firing of the task. It is safe to call more
// than once and safe to call from within the task body.
func (t Task) Cancel() {
	if t.t != nil {
		t.t.cancelled = true
	}
}

// Deadline reports the instant the task will next fire. ok is false for a
// cancelled task or a one-shot task that has already fired; for periodic
// tasks the deadline advances after each firing.
func (t Task) Deadline() (time.Duration, bool) {
	if t.t == nil || t.t.cancelled || t.t.done {
		return 0, false
	}
	return t.t.at, true
}

// NextDeadline reports the earliest deadline of any scheduled task, or
// ok=false when nothing is scheduled. The bound is conservative: cancelled
// tasks still in the heap are counted, so the true next firing may be
// later than reported — never earlier. This is exactly the guarantee the
// simulation's quiescent fast-forward needs to bound a stretch.
func (c *Clock) NextDeadline() (time.Duration, bool) {
	if len(c.tasks) == 0 {
		return 0, false
	}
	return c.tasks[0].at, true
}

// After schedules fn to run once when the clock reaches Now()+d.
func (c *Clock) After(d time.Duration, fn func()) Task {
	return c.schedule(c.now+d, 0, fn)
}

// Every schedules fn to run each period, first firing at Now()+period.
// Every panics if period is not positive.
func (c *Clock) Every(period time.Duration, fn func()) Task {
	if period <= 0 {
		panic(fmt.Sprintf("vtime: non-positive period %v", period))
	}
	return c.schedule(c.now+period, period, fn)
}

// EveryAt schedules fn each period with the first firing at Now()+first.
// This allows deliberate phase offsets between periodic controllers, which
// the ECL uses to interleave socket-level loops.
func (c *Clock) EveryAt(first, period time.Duration, fn func()) Task {
	if period <= 0 {
		panic(fmt.Sprintf("vtime: non-positive period %v", period))
	}
	return c.schedule(c.now+first, period, fn)
}

func (c *Clock) schedule(at time.Duration, period time.Duration, fn func()) Task {
	t := &task{at: at, period: period, fn: fn, seq: c.seq}
	c.seq++
	heap.Push(&c.tasks, t)
	return Task{t: t}
}

// Pending reports the number of scheduled, non-cancelled tasks. Intended
// for tests.
func (c *Clock) Pending() int {
	n := 0
	for _, t := range c.tasks {
		if !t.cancelled {
			n++
		}
	}
	return n
}

type task struct {
	at        time.Duration
	period    time.Duration
	fn        func()
	seq       uint64
	cancelled bool
	done      bool
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *taskHeap) Push(x any) { *h = append(*h, x.(*task)) }

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
