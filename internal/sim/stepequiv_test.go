package sim

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/relock"
	"ecldb/internal/units"
	"ecldb/internal/workload"
)

// stepEquivOptions builds the scenario the production-versus-reference
// comparison runs: an ECL run over a stepped profile whose zero plateaus
// give the quiescent fast-forward paths (idle macro windows, active
// stretches, closed-form batching) real windows to claim, with the
// observability layer, query tracing and energy attribution attached so
// every rendered artifact enters the comparison.
func stepEquivOptions() Options {
	ob := obs.New(0)
	ob.Trace = trace.New(3)
	ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	return Options{
		Workload: workload.NewKV(false),
		Load: loadprofile.Step{
			Levels:  []float64{5000, 0, 0, 0, 8000, 0, 0, 0, 2000},
			StepLen: 2 * time.Second,
		},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     7,
		Obs:      ob,
	}
}

// runStepPath runs stepEquivOptions on the production path or, with
// naive, on the reference path (SetNaiveStep), and renders its artifacts
// into dir: the event JSONL, the Prometheus exposition, the explain
// report, the Perfetto export, the trace CSV and the energy-attribution
// JSONL.
func runStepPath(t *testing.T, naive bool, dir string) (*Sim, *Result, Options) {
	t.Helper()
	opts := stepEquivOptions()
	SetNaiveStep(naive)
	s, err := New(opts)
	SetNaiveStep(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ob := opts.Obs
	for _, a := range []struct {
		name  string
		write func(f *os.File) error
	}{
		{"events.jsonl", func(f *os.File) error { return ob.Log.WriteJSONL(f) }},
		{"metrics.prom", func(f *os.File) error { return ob.Metrics.WriteProm(f) }},
		{"explain.txt", func(f *os.File) error { _, err := f.WriteString(ob.Explain()); return err }},
		{"perfetto.json", func(f *os.File) error { return ob.Trace.WritePerfetto(f) }},
		{"trace.csv", func(f *os.File) error { return res.Rec.WriteCSV(f) }},
		{"eattr.jsonl", func(f *os.File) error { return ob.Energy.WriteJSONL(f) }},
	} {
		f, err := os.Create(filepath.Join(dir, a.name))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return s, res, opts
}

// TestStepPathsMatchReference compares this package's two step paths end
// to end. Production is the discrete-event loop with the epoch-keyed
// kernel cache and closed-form stretch integration; the reference
// (SetNaiveStep, eclsim -nomemo) walks every quantum with a full
// perf-model evaluation and per-quantum power integration. Closed-form
// integration regroups float sums (P·(n·q) instead of n per-quantum
// terms), so the rendered artifacts must agree under the re-lock rules
// (internal/relock): every integer and every non-numeric byte exactly,
// every float within 1e-9 relative. The Results must agree semantically,
// both runs must conserve energy, and the comparison must not be vacuous:
// production has to engage every fast path, the reference none.
// scripts/check.sh runs this under the race detector.
func TestStepPathsMatchReference(t *testing.T) {
	prodDir, refDir := t.TempDir(), t.TempDir()
	prod, prodRes, prodOpts := runStepPath(t, false, prodDir)
	ref, refRes, refOpts := runStepPath(t, true, refDir)

	reports, err := relock.CompareTrees(refDir, prodDir, relock.Options{RelEps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 6 {
		t.Fatalf("compared %d artifacts, want 6", len(reports))
	}
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("%s: production diverges from the reference: %s", r.Path, r.Err)
		}
	}
	assertSemanticallyEqual(t, "production", refRes, prodRes)
	assertEnergyConservation(t, "production", prod, prodOpts.Obs.Energy)
	assertEnergyConservation(t, "reference", ref, refOpts.Obs.Energy)

	if prod.macroWindows == 0 || prod.stretchWindows == 0 || prod.batchQuanta == 0 {
		t.Errorf("production engaged %d macro windows, %d active stretches and %d batched quanta; "+
			"every fast path must engage or the comparison is vacuous",
			prod.macroWindows, prod.stretchWindows, prod.batchQuanta)
	}
	if ref.macroWindows != 0 || ref.stretchWindows != 0 || ref.batchQuanta != 0 || ref.kernels != nil {
		t.Errorf("reference engaged a fast path: %d macro windows, %d active stretches, %d batched quanta, kernel cache %v",
			ref.macroWindows, ref.stretchWindows, ref.batchQuanta, ref.kernels != nil)
	}
}

// TestKernelCacheLockstep is the layer-local proof of the epoch-keyed
// step kernel cache: two same-seed ECL sims run side by side, one through
// stepCached and advanceSynthetic, the other through stepNaive and
// advanceSyntheticNaive, over a test-written quantum loop that offers
// load and lets the controllers tick (prewarm included). The cached step
// evaluates the reference's expressions in the reference's order, so
// after every quantum the machines' true energy and instruction counters
// must carry identical bits, and every StateEpoch and engine counter
// must match.
func TestKernelCacheLockstep(t *testing.T) {
	build := func(naive bool) *Sim {
		s, err := New(Options{
			Workload: workload.NewKV(false),
			Load:     loadprofile.Constant{Len: time.Hour},
			Governor: GovernorECL,
			Seed:     5,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.naive = naive // Prewarm's synthetic sweeps take the matching path
		s.Prewarm()
		s.controller.Start()
		return s
	}
	cached, ref := build(false), build(true)
	check := func(phase string, i int) {
		t.Helper()
		for sock := 0; sock < cached.topo.Sockets; sock++ {
			for _, d := range []hw.Domain{hw.DomainPackage, hw.DomainDRAM} {
				c, r := cached.machine.TrueEnergy(sock, d), ref.machine.TrueEnergy(sock, d)
				if math.Float64bits(c.Joules()) != math.Float64bits(r.Joules()) {
					t.Fatalf("%s quantum %d: socket %d domain %v energy %v (cached) != %v (reference)", phase, i, sock, d, c, r)
				}
			}
			if c, r := cached.machine.SocketInstructions(sock), ref.machine.SocketInstructions(sock); math.Float64bits(c) != math.Float64bits(r) {
				t.Fatalf("%s quantum %d: socket %d instructions %v (cached) != %v (reference)", phase, i, sock, c, r)
			}
			if c, r := cached.machine.StateEpoch(sock), ref.machine.StateEpoch(sock); c != r {
				t.Fatalf("%s quantum %d: socket %d StateEpoch %d (cached) != %d (reference)", phase, i, sock, c, r)
			}
		}
		ce, re := cached.engine, ref.engine
		if ce.SubmittedQueries() != re.SubmittedQueries() || ce.CompletedQueries() != re.CompletedQueries() ||
			ce.InFlight() != re.InFlight() || ce.Latency().OverThreshold() != re.Latency().OverThreshold() {
			t.Fatalf("%s quantum %d: engine counters diverged: submitted %d/%d completed %d/%d inflight %d/%d violations %d/%d",
				phase, i, ce.SubmittedQueries(), re.SubmittedQueries(), ce.CompletedQueries(), re.CompletedQueries(),
				ce.InFlight(), re.InFlight(), ce.Latency().OverThreshold(), re.Latency().OverThreshold())
		}
	}
	check("prewarm", 0)

	// Bursts around idle gaps long enough for the controllers to
	// reconfigure (1 s ticks), so kernels refresh on real epoch moves.
	load := loadprofile.Step{Levels: []float64{6000, 0, 9000, 0, 0, 3000}, StepLen: 500 * time.Millisecond}
	q := cached.opts.Quantum
	epoch0 := cached.machine.StateEpoch(0)
	i := 0
	for at := time.Duration(0); at < load.Duration(); at += q {
		qps := units.HertzOf(load.QPS(at))
		if err := cached.engine.OfferLoad(qps, q, cached.clock.Now()); err != nil {
			t.Fatal(err)
		}
		if err := ref.engine.OfferLoad(qps, q, ref.clock.Now()); err != nil {
			t.Fatal(err)
		}
		cached.stepCached(q)
		ref.stepNaive(q)
		check("step", i)
		i++
	}
	for i := 0; i < 200; i++ {
		cached.advanceSynthetic(q)
		ref.advanceSyntheticNaive(q)
		check("synthetic", i)
	}
	if cached.engine.CompletedQueries() == 0 || cached.machine.StateEpoch(0) == epoch0 {
		t.Fatalf("lockstep is vacuous: %d queries completed, socket 0 epoch %d -> %d",
			cached.engine.CompletedQueries(), epoch0, cached.machine.StateEpoch(0))
	}
	if ref.kernels != nil {
		t.Fatal("the reference sim built a kernel cache")
	}
}

// assertEnergyConservation asserts the attribution meter's two-part
// conservation contract after a run: (1) the meter's integrated mirror
// matches the machine's true RAPL counters bit for bit on EVERY step
// path — Accrue is called once per counter-integration site with the
// identical float terms in the identical order, so the mirror follows
// whatever grouping (per-quantum or closed-form) the machine used; and
// (2) the attributed partition is exact by the subtractive identity
// integ − queries − control − residual == 0 per socket and domain (see
// energyattr.ResidualJ for why the additive restatement is the wrong
// check). (3) The audit ledger keeps pace with the machine: the
// counterfactual never draws less than the always-max machine spinning,
// so every closed record's BaselineJ must cover at least that spin power
// over the part of its reign inside the attributed run window (relative
// 1e-9 for the summation grouping). It also guards against vacuity: the
// run must actually have attributed query and control energy, observed
// queries, recorded spans, and closed ledger records.
func assertEnergyConservation(t *testing.T, name string, s *Sim, m *energyattr.Meter) {
	t.Helper()
	spinW := make([]units.Watt, s.topo.Sockets)
	for sock := range spinW {
		spinPkgW, spinDramW, _, _, _ := s.allMaxPower(sock)
		spinW[sock] = spinPkgW + spinDramW
	}
	short := 0
	for _, r := range m.Ledger() {
		start := max(r.Start, s.started)
		if r.End <= start {
			continue
		}
		floor := spinW[r.Socket].Over(r.End - start).Joules()
		if r.BaselineJ.Joules() < floor*(1-1e-9) {
			if short++; short <= 3 {
				t.Errorf("%s: ledger record socket %d %q [%v, %v] baseline %.6g J below the spin floor %.6g J",
					name, r.Socket, r.Key, r.Start, r.End, r.BaselineJ.Joules(), floor)
			}
		}
	}
	if short > 3 {
		t.Errorf("%s: %d ledger records in all fall below the spin floor", name, short)
	}
	for sock := 0; sock < s.topo.Sockets; sock++ {
		for _, d := range []struct {
			meter int
			hw    hw.Domain
		}{{energyattr.DomainPackage, hw.DomainPackage}, {energyattr.DomainDRAM, hw.DomainDRAM}} {
			integ := m.Integrated(sock, d.meter)
			truth := s.machine.TrueEnergy(sock, d.hw)
			if integ != truth {
				t.Errorf("%s: socket %d %s meter integ %v != machine TrueEnergy %v (the mirror must be bitwise)",
					name, sock, energyattr.DomainName(d.meter), integ, truth)
			}
			if part := integ - m.QueriesJ(sock, d.meter) - m.ControlJ(sock, d.meter) - m.ResidualJ(sock, d.meter); part != 0 {
				t.Errorf("%s: socket %d %s partition leaks %v (subtractive identity must be exact)",
					name, sock, energyattr.DomainName(d.meter), part)
			}
		}
	}
	if m.QueriesTotalJ() <= 0 {
		t.Errorf("%s: no energy attributed to queries; the conservation proof is vacuous", name)
	}
	if m.ControlTotalJ() <= 0 {
		t.Errorf("%s: no energy attributed to control; the conservation proof is vacuous", name)
	}
	if m.QueryCount() == 0 {
		t.Errorf("%s: meter observed no completed queries", name)
	}
	if len(m.Spans()) == 0 {
		t.Errorf("%s: no energy spans recorded despite tracing being attached", name)
	}
	if len(m.Ledger()) == 0 {
		t.Errorf("%s: audit ledger is empty despite reconfigurations", name)
	}
	if !m.HasBaseline() || m.BaselineTotalJ() <= 0 {
		t.Errorf("%s: frozen baseline never accrued (has=%v total=%v)", name, m.HasBaseline(), m.BaselineTotalJ())
	}
}

// assertSemanticallyEqual is the in-process semantic check between the
// reference float grouping and a batched run: every integer-exact
// observable matches bit for bit, and the accumulated energies agree
// within a tight relative epsilon (the regrouped sums differ only by
// association of exact per-quantum terms).
func assertSemanticallyEqual(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if got.Completed != ref.Completed || got.Submitted != ref.Submitted ||
		got.Violations != ref.Violations {
		t.Errorf("%s: query counters diverged from reference: completed %d/%d submitted %d/%d violations %d/%d",
			name, got.Completed, ref.Completed, got.Submitted, ref.Submitted, got.Violations, ref.Violations)
	}
	if got.AvgLatency != ref.AvgLatency || got.P99Latency != ref.P99Latency {
		t.Errorf("%s: latency summaries diverged from reference: avg %v/%v p99 %v/%v",
			name, got.AvgLatency, ref.AvgLatency, got.P99Latency, ref.P99Latency)
	}
	if got.MostApplied != ref.MostApplied {
		t.Errorf("%s: MostApplied diverged from reference: %q vs %q", name, got.MostApplied, ref.MostApplied)
	}
	if got.Duration != ref.Duration {
		t.Errorf("%s: duration diverged from reference: %v vs %v", name, got.Duration, ref.Duration)
	}
	const eps = 1e-9
	if relDelta(got.EnergyJ.Joules(), ref.EnergyJ.Joules()) > eps {
		t.Errorf("%s: RAPL energy drifted beyond %.0e relative: %v vs %v", name, eps, got.EnergyJ, ref.EnergyJ)
	}
	if relDelta(got.PSUEnergyJ.Joules(), ref.PSUEnergyJ.Joules()) > eps {
		t.Errorf("%s: PSU energy drifted beyond %.0e relative: %v vs %v", name, eps, got.PSUEnergyJ, ref.PSUEnergyJ)
	}
}

// relDelta returns |a-b| / max(|a|, |b|), or 0 when both are zero.
func relDelta(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// settleAllMax applies the full configuration to every socket and steps
// the machine past the apply latency so it is effective.
func settleAllMax(t *testing.T, s *Sim) {
	t.Helper()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		if err := s.machine.Apply(sock, hw.AllMax(s.topo)); err != nil {
			t.Fatal(err)
		}
	}
	s.machine.Step(hw.ApplyLatency, newZeroActs(s.topo))
}

// TestKernelRefreshesOnMachineEpoch asserts that a configuration change
// invalidates the step kernel: the cached budgets must follow the
// machine's effective state, not the state at cache construction.
func TestKernelRefreshesOnMachineEpoch(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	if k := s.kernelFor(0); !k.idle || k.budget[0] != 0 {
		t.Fatalf("fresh machine kernel not idle: idle=%v budget0=%v", k.idle, k.budget[0])
	}
	settleAllMax(t, s)
	k := s.kernelFor(0)
	if k.idle || k.budget[0] <= 0 {
		t.Fatalf("kernel stale after Apply+settle: idle=%v budget0=%v", k.idle, k.budget[0])
	}
}

// TestKernelRefreshesOnWorkloadSwitch asserts that installing a workload
// with different hardware characteristics moves the characteristics epoch
// and re-derives the kernel's capacity.
func TestKernelRefreshesOnWorkloadSwitch(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	settleAllMax(t, s)
	before := s.kernelFor(0).caps.MemGBsAtFull
	epoch := s.engine.CharacteristicsEpoch()
	if err := s.engine.SwitchWorkload(workload.NewKV(false)); err != nil {
		t.Fatal(err)
	}
	if s.engine.CharacteristicsEpoch() == epoch {
		t.Fatal("SwitchWorkload did not move CharacteristicsEpoch")
	}
	after := s.kernelFor(0).caps.MemGBsAtFull
	if before == after {
		t.Fatalf("kernel capacity unchanged across workload switch (MemGBsAtFull %v)", before)
	}
}

// TestKernelRefreshesOnThrottle asserts that throttle engagement — a
// transition driven by the power limiter inside machine.Step, with no
// Apply involved — still invalidates the kernel and shrinks its budgets.
func TestKernelRefreshesOnThrottle(t *testing.T) {
	pp := hw.DefaultPowerParams()
	pp.TDPWatts = 30
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
		Power:    &pp,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	settleAllMax(t, s)
	before := s.kernelFor(0).budget[0]
	s.advanceSynthetic(5 * time.Second) // full-tilt load drains the turbo budget
	if s.machine.ThrottleFactor(0) == 1 {
		t.Fatal("synthetic full load under a 30 W TDP never engaged the throttle")
	}
	after := s.kernelFor(0).budget[0]
	if after >= before {
		t.Fatalf("kernel budget did not shrink under throttling: before %v, after %v", before, after)
	}
}

// TestSimStepSteadyStateAllocatesNothing locks the optimized step path at
// zero allocations once warm: with the kernel cache in place, an idle
// steady state (baseline governor, zero load, firmware transitions long
// past) must not allocate per quantum.
func TestSimStepSteadyStateAllocatesNothing(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 0, Len: time.Hour},
		Governor: GovernorBaseline,
		Seed:     5,
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
		t.Fatalf("steady-state sim step allocates %.1f allocs/op, want 0", allocs)
	}
}

// benchStepKernel measures one live step (load offer + full stack quantum)
// through the kernel cache (stepCached) or the reference (stepNaive); the
// pair quantifies what the epoch memoization buys on the per-quantum path.
func benchStepKernel(b *testing.B, naive bool) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 3000, Len: time.Hour},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     9,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Prewarm()
	s.controller.Start()
	step := s.stepCached
	if naive {
		step = s.stepNaive
	}
	q := s.opts.Quantum
	for i := 0; i < 2000; i++ {
		if err := s.engine.OfferLoad(3000, q, s.clock.Now()); err != nil {
			b.Fatal(err)
		}
		step(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.engine.OfferLoad(3000, q, s.clock.Now()); err != nil {
			b.Fatal(err)
		}
		step(q)
	}
}

func BenchmarkStepKernel(b *testing.B)       { benchStepKernel(b, false) }
func BenchmarkStepKernelNoMemo(b *testing.B) { benchStepKernel(b, true) }

// BenchmarkIdleHeavyRun runs a full 60 s simulation whose load profile is
// two short bursts around a long zero plateau — the shape where the
// discrete-event scheduler's quiescent stretches (idle macro-steps and
// active-but-workless IdleQuantum windows) and their closed-form
// integration dominate. No observer is attached: this measures the
// headless sweep configuration the figure regenerators run in.
func BenchmarkIdleHeavyRun(b *testing.B) {
	levels := make([]float64, 30)
	levels[0], levels[len(levels)-1] = 4000, 4000
	for i := 0; i < b.N; i++ {
		s, err := New(Options{
			Workload: workload.NewKV(true),
			Load:     loadprofile.Step{Levels: levels, StepLen: 2 * time.Second},
			Governor: GovernorBaseline,
			Prewarm:  true,
			Seed:     13,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
