package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/workload"
)

// energyAttrOptions is the shared scenario of the attribution tests: an
// ECL run over a stepped profile with idle plateaus (so RTI windows and
// quiescent stretches engage), query tracing attached, and — when withMeter —
// the attribution meter riding along.
func energyAttrOptions(withMeter bool) Options {
	ob := obs.New(0)
	ob.Trace = trace.New(3)
	if withMeter {
		ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	}
	return Options{
		Workload: workload.NewKV(false),
		Load: loadprofile.Step{
			Levels:  []float64{5000, 0, 0, 8000},
			StepLen: 2 * time.Second,
		},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     11,
		Obs:      ob,
	}
}

// neutralObservables hashes the run observables the attribution layer
// must NOT perturb: the recorded time series (exact float bits), the
// result scalars, the rendered trace CSV, the profile skyline, the
// decision-event JSONL, the explain report, and the query-trace phase
// breakdown. The Prometheus exposition and the Perfetto export are
// deliberately excluded — the meter adds series and counter tracks to
// both by design; everything else must be byte-identical with the meter
// on or off.
func neutralObservables(t *testing.T, opts Options) [sha256.Size]byte {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range res.Rec.Names() {
		fmt.Fprintln(h, name)
		series := res.Rec.Series(name)
		for i := range series.Values {
			writeU64(h, uint64(series.Times[i]))
			writeF64(h, series.Values[i])
		}
	}
	writeF64(h, res.EnergyJ.Joules())
	writeF64(h, res.PSUEnergyJ.Joules())
	writeU64(h, uint64(res.Completed))
	writeU64(h, uint64(res.Submitted))
	writeU64(h, uint64(res.Violations))
	writeU64(h, uint64(res.AvgLatency))
	writeU64(h, uint64(res.P99Latency))
	fmt.Fprintln(h, res.MostApplied)
	if err := res.Rec.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	if s.Controller() != nil {
		tpc := s.Machine().Topology().ThreadsPerCore
		for _, e := range s.Controller().Socket(0).Profile().Skyline() {
			fmt.Fprintln(h, e.Config.Key(tpc))
			writeF64(h, e.PowerW.Watts())
			writeF64(h, e.Score.PerSecond())
			writeU64(h, uint64(e.LastEval))
		}
	}
	if err := opts.Obs.Log.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(h, opts.Obs.Explain())
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestEnergyAttrBehaviorNeutral proves attaching the attribution meter
// cannot perturb the simulation: the meter only mirrors values the stack
// already computes (machine power terms, engine work shares, planned
// control windows) and never feeds anything back, so every observable
// outside its own exposition must be byte-identical with it on or off —
// the energy-layer analogue of TestServingBehaviorNeutral.
func TestEnergyAttrBehaviorNeutral(t *testing.T) {
	without := neutralObservables(t, energyAttrOptions(false))
	with := neutralObservables(t, energyAttrOptions(true))
	if with != without {
		t.Errorf("attaching the energy meter perturbed the run:\n  with    %x\n  without %x", with, without)
	}
}

// TestEnergyAttrDeterministic runs the metered scenario twice and demands
// byte-identical meter exports: the JSONL stream and the rendered report
// join the determinism contract like every other exposition.
func TestEnergyAttrDeterministic(t *testing.T) {
	run := func() [sha256.Size]byte {
		opts := energyAttrOptions(true)
		sum, _, _ := digestRun(t, opts)
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different attribution digests:\n  %x\n  %x", a, b)
	}
}

// TestEnergyAttrSavedObservable asserts the audit ledger and the frozen
// baseline produce a meaningful "energy saved" signal on an ECL run over
// a mostly-idle profile: the always-max counterfactual must exceed the
// measured energy (the controller races to idle; the strawman cannot),
// and the ledger's measured column must sum to the meter's integrated
// total over the attributed window.
func TestEnergyAttrSavedObservable(t *testing.T) {
	opts := energyAttrOptions(true)
	_, _, _ = digestRun(t, opts)
	m := opts.Obs.Energy
	if m.SavedJ() <= 0 {
		t.Errorf("ECL run saved %v vs the always-max baseline; expected a positive saving on an idle-heavy profile", m.SavedJ())
	}
	recs := m.Ledger()
	if len(recs) == 0 {
		t.Fatal("audit ledger is empty")
	}
	for i, r := range recs {
		if r.End < r.Start {
			t.Errorf("ledger[%d]: End %v < Start %v", i, r.End, r.Start)
		}
		if r.Key == "" {
			t.Errorf("ledger[%d]: empty configuration key", i)
		}
	}
}

// TestEnergyAttrSteadyStateAllocatesNothing locks the full attribution
// accrual path — machine Accrue, meter Settle, baseline interpolation,
// engine weight distribution — at zero allocations once warm, on top of
// the already-locked zero-alloc step path.
func TestEnergyAttrSteadyStateAllocatesNothing(t *testing.T) {
	ob := obs.New(16)
	ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 0, Len: time.Hour},
		Governor: GovernorBaseline,
		Seed:     5,
		Obs:      ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.baseline.Start()
	q := s.opts.Quantum
	for i := 0; i < 2000; i++ { // settle the config and outlast the EET delay
		s.step(q)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.step(q)
	})
	if allocs != 0 {
		t.Fatalf("steady-state attributed step allocates %.1f allocs/op, want 0", allocs)
	}
	if ob.Energy.IntegratedTotalJ() <= 0 {
		t.Fatal("meter accrued nothing; the zero-alloc proof is vacuous")
	}
}

// TestEnergyAttrDisabledStepAllocatesNothing re-locks the plain step path
// with an observer attached but no meter: the nil-meter guards must keep
// every attribution site a no-op with zero allocations.
func TestEnergyAttrDisabledStepAllocatesNothing(t *testing.T) {
	ob := obs.New(16)
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 0, Len: time.Hour},
		Governor: GovernorBaseline,
		Seed:     5,
		Obs:      ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.baseline.Start()
	q := s.opts.Quantum
	for i := 0; i < 2000; i++ {
		s.step(q)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.step(q)
	})
	if allocs != 0 {
		t.Fatalf("steady-state step with nil meter allocates %.1f allocs/op, want 0", allocs)
	}
}
