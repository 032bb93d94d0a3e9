package hw

import (
	"reflect"
	"testing"
	"time"

	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
)

// applyModel is the reference for one socket's request state. It owns
// deep Clones of everything it is handed, which is the semantics the
// machine's reused per-socket buffers must reproduce.
type applyModel struct {
	requested, pending Configuration
	at                 time.Duration
	valid              bool
	epoch              uint64
}

func (am *applyModel) apply(cfg Configuration, now time.Duration) {
	am.pending, am.at, am.valid = cfg.Clone(), now+ApplyLatency, true
	am.epoch++
}

// stepTo mirrors Step's commit rule: a pending request settling strictly
// before the end of the step is committed inside it.
func (am *applyModel) stepTo(end time.Duration) {
	if am.valid && am.at < end {
		am.requested, am.valid = am.pending, false
		am.epoch++
	}
}

func (am *applyModel) requestedCfg() Configuration {
	if am.valid {
		return am.pending
	}
	return am.requested
}

func (am *applyModel) settled(now time.Duration) Configuration {
	if am.valid && now >= am.at {
		return am.pending
	}
	return am.requested
}

// stateEpoch is StateEpoch under the performance bias with automatic
// uncore scaling off and no throttling: the discrete epoch plus the
// pending-due bit.
func (am *applyModel) stateEpoch(now time.Duration) uint64 {
	e := am.epoch << 16
	if am.valid && now >= am.at {
		e |= 1
	}
	return e
}

// TestApplyBuffersMatchCloneModel applies A, settles it, applies B and
// supersedes it with C before it settles, then scribbles over every
// slice the caller passed in, and applies D into the buffer the first
// promotion released. At every point Requested, Effective, EffectiveView
// and StateEpoch must equal the Clone-based model's view.
func TestApplyBuffersMatchCloneModel(t *testing.T) {
	m := newTestMachine()
	topo := m.Topology()
	acts := idleActs(m)
	model := &applyModel{requested: NewConfiguration(topo)}

	mk := func(threads, mhz, uncore int) Configuration {
		c := NewConfiguration(topo)
		for i := 0; i < threads; i++ {
			c.Threads[i] = true
		}
		for i := range c.CoreMHz {
			c.CoreMHz[i] = mhz
		}
		c.UncoreMHz = uncore
		return c
	}
	a, b, c, d := mk(4, 2000, 1800), mk(12, 2600, 2400), mk(24, TurboMHz, MaxUncoreMHz), mk(1, MinCoreMHz, MinUncoreMHz)

	check := func(when string) {
		t.Helper()
		now := m.Now()
		if got, want := m.Requested(0), model.requestedCfg(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Requested = %+v, model %+v", when, got, want)
		}
		want := model.settled(now)
		if got := m.Effective(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Effective = %+v, model %+v", when, got, want)
		}
		if got := *m.EffectiveView(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: EffectiveView = %+v, model %+v", when, got, want)
		}
		if got, want := m.StateEpoch(0), model.stateEpoch(now); got != want {
			t.Fatalf("%s: StateEpoch = %#x, model %#x", when, got, want)
		}
	}
	apply := func(cfg Configuration, when string) {
		t.Helper()
		if err := m.Apply(0, cfg); err != nil {
			t.Fatal(err)
		}
		model.apply(cfg, m.Now())
		check(when)
	}
	step := func(dt time.Duration, when string) {
		t.Helper()
		m.Step(dt, acts)
		model.stepTo(m.Now())
		check(when)
	}

	check("fresh machine")
	apply(a, "A applied")
	step(ApplyLatency+5*time.Microsecond, "A settled")
	heldA := m.Requested(0)
	apply(b, "B applied")
	step(3*time.Microsecond, "B pending")
	apply(c, "C supersedes B")
	for _, cfg := range []Configuration{a, b, c} {
		for i := range cfg.Threads {
			cfg.Threads[i] = !cfg.Threads[i]
		}
		for i := range cfg.CoreMHz {
			cfg.CoreMHz[i] = 1
		}
	}
	check("caller slices overwritten")
	step(ApplyLatency, "C settled")
	if want := mk(4, 2000, 1800); !reflect.DeepEqual(heldA, want) {
		t.Fatalf("a Requested copy taken at A changed to %+v", heldA)
	}
	apply(d, "D applied into the released buffer")
	step(ApplyLatency/2, "D pending")
	step(ApplyLatency, "D settled")
}

// TestApplyAllocationFree pins the clone-free Apply: with no observer
// attached, a warm apply/settle cycle touches no heap.
func TestApplyAllocationFree(t *testing.T) {
	m := newTestMachine()
	acts := idleActs(m)
	idle, run := NewConfiguration(m.Topology()), AllMax(m.Topology())
	cycle := func() {
		if err := m.Apply(0, run); err != nil {
			t.Fatal(err)
		}
		m.Step(2*ApplyLatency, acts)
		if err := m.Apply(0, idle); err != nil {
			t.Fatal(err)
		}
		m.Step(2*ApplyLatency, acts)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("apply/settle cycle allocates %v times, want 0", n)
	}
}

// BenchmarkMachineApply measures one reconfiguration with the decision
// event log and the energy-attribution meter attached, as on a fully
// observed run: the race-to-idle alternation between an active
// configuration and idle, which interns two keys and then reuses them.
func BenchmarkMachineApply(b *testing.B) {
	m := newTestMachine()
	ob := obs.New(1 << 12)
	ob.Energy = energyattr.New(m.Topology().Sockets)
	m.SetObserver(ob)
	cfgs := [2]Configuration{AllMax(m.Topology()), NewConfiguration(m.Topology())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Apply(0, cfgs[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}
