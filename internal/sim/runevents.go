package sim

import (
	"fmt"
	"time"

	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
)

// This file holds the production run loop: instead of inspecting every
// 1 ms quantum for boundaries (sample due? switch due? quiescent window
// ahead?), the loop pops the next scheduled event from a deterministic
// priority queue and advances the simulation to it. Quanta between
// events fall into two classes:
//
//   - Active quanta (queries in flight, load offered, or workers carrying
//     debt) run the full per-quantum body through the step kernel cache
//     (stepCached).
//   - Quiescent stretches (engine empty, zero offered load) fast-forward
//     through stretchStep, whether every socket is parked or workers are
//     awake and spinning: the engine only accrues its bookkeeping
//     (Engine.IdleStretch) under a constant spin-only activity set, and
//     the machine integrates in closed form (hw.Machine.StepStretch)
//     when its guards hold.
//
// Integer observables are identical to the reference walk (runQuanta);
// the closed-form integration regroups float sums, so energies agree
// within 1e-9 relative (DESIGN.md §16). TestStepPathsMatchReference
// compares the two paths end to end.

// gridCeil rounds an instant up to the quantum grid: the profile time of
// the first run-loop iteration at or after x. Duration division is exact
// integer math.
func gridCeil(x, q time.Duration) time.Duration {
	return (x + q - 1) / q * q
}

// runEvents executes the load profile on the event scheduler. It must
// record, count, and integrate exactly what runQuanta would.
func (s *Sim) runEvents(dur time.Duration) error {
	q := s.opts.Quantum
	hook := s.opts.Hook
	eq := &s.events
	switched := false

	// The spine: the end of the run, the first trace-sample boundary
	// (each firing schedules its successor), and the workload switch.
	eq.push(dur, evEnd)
	eq.push(0, evSample)
	if s.opts.SwitchAt > 0 && s.opts.SwitchTo != nil {
		eq.push(s.opts.SwitchAt, evSwitch)
	}

	t := time.Duration(0) // profile time of the next unstepped quantum
	lastSampled := time.Duration(-1)
	for {
		at, kind, ok := eq.pop()
		if !ok {
			return fmt.Errorf("sim: event queue drained before the end event")
		}
		switch kind {
		case evEnd:
			return s.advanceTo(&t, dur, &switched)
		case evSwitch:
			// Re-synchronize at the switch instant: advancing to the
			// switch's grid point makes the next advanceTo iteration
			// perform the switch at its top, exactly where the quantum
			// loop checks it. (Stretches are bounded by SwitchAt, so the
			// grind top is guaranteed to see it.)
			T := gridCeil(at, q)
			if T > dur {
				T = dur
			}
			if err := s.advanceTo(&t, T, &switched); err != nil {
				return err
			}
		case evSample:
			// The quantum loop samples at the bottom of the first
			// iteration T >= boundary, after stepping T's quantum.
			T := gridCeil(at, q)
			if T <= lastSampled {
				// Sub-quantum sample periods: at most one sample fires
				// per iteration, so a boundary already covered by the
				// last sampled quantum fires at the next one.
				T = lastSampled + q
			}
			if T >= dur {
				// Never reached inside the loop; the final sample(dur)
				// in Run covers the tail, as in the quantum loop.
				continue
			}
			if err := s.advanceTo(&t, T+q, &switched); err != nil {
				return err
			}
			s.sample(T)
			lastSampled = T
			if hook != nil {
				hook.OnSample(s.clock.Now())
			}
			eq.push(at+s.opts.SampleEvery, evSample)
		}
	}
}

// advanceTo advances the run from *t (a grid point) to target: every
// quantum in [*t, target) is either stepped by the full per-quantum body
// or covered by a quiescent fast-forward stretch. On return *t == target
// (grid-aligned targets; a target inside a quantum steps that whole
// quantum, as the quantum loop does at the profile's tail).
func (s *Sim) advanceTo(t *time.Duration, target time.Duration, switched *bool) error {
	q := s.opts.Quantum
	hook := s.opts.Hook
	for *t < target {
		if !*switched && s.opts.SwitchAt > 0 && *t >= s.opts.SwitchAt && s.opts.SwitchTo != nil {
			if err := s.engine.SwitchWorkload(s.opts.SwitchTo); err != nil {
				return err
			}
			*switched = true
		}
		if k := s.stretchQuantaFrom(*t, target, *switched); k > 1 {
			*t += time.Duration(s.stretchStep(k)) * q
			continue
		}
		now := s.clock.Now()
		if err := s.engine.OfferLoad(units.HertzOf(s.opts.Load.QPS(*t)), q, now); err != nil {
			return err
		}
		s.step(q)
		if hook != nil {
			hook.OnQuantum(s.clock.Now())
		}
		*t += q
	}
	return nil
}

// stretchQuantaFrom plans a quiescent fast-forward from grid point t: it
// returns how many consecutive quanta are provably workless (engine
// quiescent, zero offered load throughout); 0 or 1 means "grind". A
// pending workload switch caps the span, and a clock task deadline D
// allows the last quantum to at most end at D: the task may mutate any
// state, and one landing exactly on the window's end fires from the final
// clock advance with the machine in the state the per-quantum walk would
// leave. A pending settle at instant A keeps quantum starts before A.
// That bound is not needed for correctness — stretchStep re-checks the
// configuration epochs after every quantum, and its attribution reads
// the active-thread counts after each step as the reference does — it
// decides how much of a stretch StepStretch can integrate in closed form
// before the settle forces a grind.
func (s *Sim) stretchQuantaFrom(t, target time.Duration, switched bool) int {
	if !s.engine.Quiescent() {
		return 0
	}
	q := s.opts.Quantum
	span := target - t
	if !switched && s.opts.SwitchAt > 0 && s.opts.SwitchTo != nil {
		if sp := s.opts.SwitchAt - t; sp < span {
			span = sp
		}
	}
	if span < 2*q {
		return 0
	}
	k := int((span + q - 1) / q)
	now := s.clock.Now()
	if d, ok := s.clock.NextDeadline(); ok {
		if kd := int((d - now) / q); kd < k {
			k = kd
		}
	}
	if a, ok := s.machine.NextSettle(); ok {
		if ka := int((a - now + q - 1) / q); ka < k {
			k = ka
		}
	}
	if k < 2 {
		return 0
	}
	// Scan the load profile along the quantum grid for the first nonzero
	// offer; the stretch ends before it.
	n := 0
	for n < k && s.opts.Load.QPS(t+time.Duration(n)*q) == 0 {
		n++
	}
	if n < 2 {
		return 0
	}
	return n
}

// kernelsFresh reports whether every socket's step kernel is still valid
// for the current machine and workload epochs — the per-quantum guard of
// a quiescent stretch.
func (s *Sim) kernelsFresh() bool {
	we := s.engine.CharacteristicsEpoch()
	for sock := range s.kernels {
		k := &s.kernels[sock]
		if !k.valid || k.cfgEpoch != s.machine.StateEpoch(sock) || k.chEpoch != we {
			return false
		}
	}
	return true
}

// initStretch allocates the quiescent stretch's reused buffers.
func (s *Sim) initStretch() {
	s.stretchActs = newZeroActs(s.topo)
	s.stretchEligible = make([]int, s.topo.Sockets)
	s.stretchActive = make([]int, s.topo.Sockets)
}

// stretchStep fast-forwards up to k quanta through an engine-quiescent
// window: the engine only accrues the bookkeeping Step degenerates to
// (Engine.IdleStretch), the machine steps under the constant spin-only
// activity the full path would compute — all zeros on a parked socket —
// and the clock advances. It bails out early when any configuration or
// characteristics epoch moves (UFS decay, settle commits, throttle
// transitions — anything that would change the next quantum's activity),
// returning how many quanta it actually covered.
//
// Arithmetic identity with the ground path, term by term: the activity
// set below evaluates stepCached's expressions with every busy fraction
// and used-instruction count pinned to their provable zeros, and
// Engine.IdleStretch reproduces Step's accounting adds (see its contract).
func (s *Sim) stretchStep(k int) int {
	if s.stretchActs == nil {
		s.initStretch()
	}
	if s.kernels == nil {
		s.initKernels()
	}
	q := s.opts.Quantum
	qs := q.Seconds()
	n := s.topo.ThreadsPerSocket()
	allIdle := true
	for sock := range s.kernels {
		kn := s.kernelFor(sock)
		a := &s.stretchActs[sock]
		elig := 0
		nActive := 0
		firstActive := -1
		for lt := 0; lt < n; lt++ {
			a.Busy[lt] = 0
			a.Spin[lt] = 0
			a.Instr[lt] = 0
			if !kn.active[lt] {
				continue
			}
			nActive++
			if firstActive < 0 {
				firstActive = lt
			}
			// stepCached: spin = 1 - BusyFrac = 1 - 0; Instr = UsedInstr +
			// spin*SpinIPC*fGHz*1e9*qs = 0 + (positive product). Adding
			// zero terms to positive operands is exact, so the literals
			// below carry identical bits.
			a.Spin[lt] = 1
			a.Instr[lt] = 1 * perfmodel.SpinIPC * kn.fGHz[lt] * 1e9 * qs
			if kn.budget[lt] > 0 {
				elig++
			}
		}
		a.MemGBs = 0 // stats.MemBytes/1e9/qs with MemBytes == 0
		a.DynScale = kn.caps.DynScale
		if s.controller != nil && firstActive >= 0 {
			// The ECL overhead lands on a zero busy fraction: b = 0 +
			// Overhead(), clamped as in the full path.
			b := s.controller.Overhead()
			if b > 1 {
				b = 1
			}
			a.Busy[firstActive] = b
		}
		s.stretchEligible[sock] = elig
		s.stretchActive[sock] = nActive
		if !kn.idle {
			allIdle = false
		}
	}
	done := 0
	for done < k {
		// Closed-form fast path: integrate the rest of the stretch in one
		// StepStretch call when its guards prove the whole span is
		// constant-state (no settle, below TDP, EET stable, UFS at its
		// decay fixed point). A guard bail grinds exactly one per-quantum
		// iteration — with the reference grouping and the per-quantum
		// epoch check — and retries, so drift resolves at quantum
		// granularity and batching re-engages the moment state stabilizes.
		now := s.clock.Now()
		if n := s.machine.StepStretch(k-done, q, s.stretchActs); n > 0 {
			s.engine.IdleStretch(now+q, q, n, s.stretchEligible, s.stretchActive)
			s.accrueBaseline(time.Duration(n)*q, nil)
			s.advanceQuanta(n)
			s.settleAttr(time.Duration(n)*q, nil)
			done += n
			s.batchQuanta += int64(n)
			// StepStretch's guards prove no machine epoch moved, and
			// IdleStretch cannot move the characteristics epoch, so
			// the kernels are still fresh.
			continue
		}
		s.engine.IdleStretch(now+q, q, 1, s.stretchEligible, s.stretchActive)
		s.machine.Step(q, s.stretchActs)
		s.accrueBaseline(q, nil)
		s.clock.Advance(q)
		s.settleAttr(q, nil)
		done++
		if s.opts.Hook != nil {
			s.opts.Hook.OnQuantum(s.clock.Now())
		}
		if !s.kernelsFresh() {
			break
		}
	}
	// Applied-configuration time, batched: the ground path adds one
	// quantum per step per non-idle socket; Duration sums are exact
	// integers, so the batched add is identical.
	if s.controller != nil {
		for i := range s.kernels {
			if !s.kernels[i].idle {
				s.kernels[i].timeAcc += time.Duration(done) * q
			}
		}
	}
	s.stretchWindows++
	if allIdle {
		s.idleStretches++
	}
	return done
}
