package dodb

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ecldb/internal/obs"
	qtrace "ecldb/internal/obs/trace"
	"ecldb/internal/workload"
)

// TestIdleStretchOneQuantumMatchesStep locks IdleStretch's contract with
// n == 1, the form the run loop uses for every quantum it grinds inside a
// quiescent stretch: on an engine that holds no work and is offered no
// load, it must leave the busy/active seconds (bit for bit), the worker
// wake/sleep events, the tracer's asleep clocks and its step frame
// exactly where a full Step over the same activity masks leaves them.
// The mask sequence wakes and parks sockets, and keeps a socket awake at
// zero budget, so every branch of the contract is exercised.
func TestIdleStretchOneQuantumMatchesStep(t *testing.T) {
	build := func() *Engine {
		e := newEngine(t, workload.NewKV(true), false)
		ob := obs.New(0)
		ob.Trace = qtrace.New(1)
		e.SetObserver(ob)
		return e
	}
	stepped, idled := build(), build()

	const dt = time.Millisecond
	type phase struct {
		awake  [2]int     // active threads per socket (a prefix)
		budget [2]float64 // per-thread budget per socket
	}
	phases := []phase{
		{awake: [2]int{0, 0}},
		{awake: [2]int{4, 0}, budget: [2]float64{1e6, 0}},
		{awake: [2]int{4, 0}, budget: [2]float64{1e6, 0}},
		{awake: [2]int{4, 2}, budget: [2]float64{1e6, 0}},
		{awake: [2]int{1, 2}, budget: [2]float64{1e6, 1e6}},
		{awake: [2]int{0, 2}, budget: [2]float64{0, 3e5}},
		{awake: [2]int{0, 0}},
		{awake: [2]int{0, 0}},
	}
	if !stepped.Quiescent() || !idled.Quiescent() {
		t.Fatal("fresh engines must be quiescent")
	}
	now := time.Duration(0)
	for i, p := range phases {
		now += dt
		act, bud := noneActive(smallTopo)
		eligible := make([]int, smallTopo.Sockets)
		count := make([]int, smallTopo.Sockets)
		for s := range act {
			for lt := 0; lt < p.awake[s]; lt++ {
				act[s][lt] = true
				bud[s][lt] = p.budget[s]
				count[s]++
				if p.budget[s] > 0 {
					eligible[s]++
				}
			}
		}
		stepped.Step(now, dt, act, bud)
		idled.IdleStretch(now, dt, 1, eligible, count)

		for s := 0; s < smallTopo.Sockets; s++ {
			wb, wa := stepped.BusySeconds(s)
			gb, ga := idled.BusySeconds(s)
			if math.Float64bits(wb) != math.Float64bits(gb) || math.Float64bits(wa) != math.Float64bits(ga) {
				t.Fatalf("quantum %d socket %d: IdleStretch busy/active seconds %v/%v, Step %v/%v",
					i, s, gb, ga, wb, wa)
			}
			if idled.lastUtil[s] != 0 || stepped.lastUtil[s] != 0 {
				t.Fatalf("quantum %d socket %d: utilization %v (IdleStretch) / %v (Step), want 0",
					i, s, idled.lastUtil[s], stepped.lastUtil[s])
			}
			if idled.asleepNS[s] != stepped.asleepNS[s] {
				t.Fatalf("quantum %d socket %d: IdleStretch asleep %v, Step %v",
					i, s, idled.asleepNS[s], stepped.asleepNS[s])
			}
		}
		if idled.stepStart != stepped.stepStart || idled.stepEnd != stepped.stepEnd {
			t.Fatalf("quantum %d: IdleStretch step frame [%v, %v), Step [%v, %v)",
				i, idled.stepStart, idled.stepEnd, stepped.stepStart, stepped.stepEnd)
		}
	}

	want, got := stepped.obsLog.Events(), idled.obsLog.Events()
	if len(want) == 0 {
		t.Fatal("the mask sequence produced no worker events; the comparison is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker events differ:\nIdleStretch %+v\nStep        %+v", got, want)
	}
	if stepped.asleepNS[0] == 0 || stepped.asleepNS[1] == 0 {
		t.Fatalf("asleep clocks %v: every socket must sleep at least once", stepped.asleepNS)
	}
}
