package hw

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ecldb/internal/units"
)

// ---- boundaryTime properties --------------------------------------------

// TestBoundaryTimeStrictlyMonotone checks the property the closed-form
// boundary index relies on: with jitter capped at raplJitterFrac < 0.5 of
// the period, consecutive refresh instants are strictly increasing for
// any salt.
func TestBoundaryTimeStrictlyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		salt := rng.Uint64()
		start := int64(rng.Intn(1_000_000))
		prev := boundaryTime(start, salt)
		for k := start + 1; k < start+500; k++ {
			b := boundaryTime(k, salt)
			if b <= prev {
				t.Fatalf("salt %#x: boundaryTime(%d)=%v <= boundaryTime(%d)=%v",
					salt, k, b, k-1, prev)
			}
			prev = b
		}
	}
}

// TestBoundaryTimeJitterBounded checks that every refresh instant stays
// within raplJitterFrac of its nominal grid point.
func TestBoundaryTimeJitterBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	maxJitter := time.Duration(raplJitterFrac * float64(raplUpdatePeriod))
	for trial := 0; trial < 200; trial++ {
		salt := rng.Uint64()
		for i := 0; i < 500; i++ {
			k := int64(rng.Intn(10_000_000))
			nominal := time.Duration(k) * raplUpdatePeriod
			d := boundaryTime(k, salt) - nominal
			if d < -maxJitter || d > maxJitter {
				t.Fatalf("salt %#x: boundaryTime(%d) jitter %v exceeds ±%v", salt, k, d, maxJitter)
			}
		}
	}
}

// TestLastBoundaryAtOrBeforeMatchesLinearWalk checks the closed-form
// index computation against the obvious linear walk from index zero, over
// random window ends and salts. This is the layer-local proof of the
// direct computation StepStretch trusts.
func TestLastBoundaryAtOrBeforeMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		salt := rng.Uint64()
		end := time.Duration(rng.Int63n(int64(200 * raplUpdatePeriod)))
		if trial%5 == 0 {
			// Land some ends exactly on refresh instants: the contract
			// is "at or before", so exact hits must be included.
			end = boundaryTime(int64(rng.Intn(200)), salt)
		}
		want := int64(-1)
		for boundaryTime(want+1, salt) <= end {
			want++
		}
		if got := lastBoundaryAtOrBefore(end, salt); got != want {
			t.Fatalf("salt %#x end %v: lastBoundaryAtOrBefore=%d, linear walk=%d",
				salt, end, got, want)
		}
	}
}

// ---- StepStretch guard bails --------------------------------------------

// machineObservables snapshots everything a bailing StepStretch must
// leave untouched. Sized for the two-socket test machine.
type machineObservables struct {
	now                 time.Duration
	pkgJ, dramJ         [2]float64
	snapPkgJ, snapDramJ [2]float64
	active, idle, sleep [2]float64
	epoch               [2]uint64
	psuJ                float64
	instr0              float64
	lastPkg0, lastPSU   float64
}

func observeMachine(m *Machine) machineObservables {
	var o machineObservables
	o.now = m.Now()
	for s := 0; s < m.Topology().Sockets; s++ {
		o.pkgJ[s] = m.TrueEnergy(s, DomainPackage).Joules()
		o.dramJ[s] = m.TrueEnergy(s, DomainDRAM).Joules()
		o.snapPkgJ[s] = m.ReadEnergy(s, DomainPackage).Joules()
		o.snapDramJ[s] = m.ReadEnergy(s, DomainDRAM).Joules()
		o.active[s], o.idle[s], o.sleep[s] = m.Residency(s)
		o.epoch[s] = m.StateEpoch(s)
	}
	o.psuJ = m.PSUEnergy().Joules()
	o.instr0 = m.ReadInstructions(0)
	pkg, _, psu := m.LastPower()
	o.lastPkg0 = pkg[0].Watts()
	o.lastPSU = psu.Watts()
	return o
}

// requireBailUntouched asserts StepStretch returns 0 and mutates nothing.
func requireBailUntouched(t *testing.T, m *Machine, n int, q time.Duration, acts []SocketActivity, why string) {
	t.Helper()
	before := observeMachine(m)
	if got := m.StepStretch(n, q, acts); got != 0 {
		t.Fatalf("%s: StepStretch = %d, want 0 (guard bail)", why, got)
	}
	if after := observeMachine(m); after != before {
		t.Fatalf("%s: bailing StepStretch mutated the machine:\n before %+v\n after  %+v", why, before, after)
	}
}

// settle commits the pending apply: one step to the settle instant and a
// short one past it (Step consumes a due pending at the start of the next
// call, so the second step is what clears it).
func settle(t *testing.T, m *Machine) {
	t.Helper()
	m.Step(ApplyLatency, idleActs(m))
	m.Step(time.Millisecond, idleActs(m))
}

// overTDPActs returns the activity recipe that pushes socket 0 above TDP
// under an AllMax configuration (the turbo-budget clamp test's load).
func overTDPActs(m *Machine) []SocketActivity {
	acts := idleActs(m)
	for i := range acts[0].Busy {
		acts[0].Busy[i] = 1
	}
	acts[0].DynScale = 1.3
	acts[0].MemGBs = PeakBandwidthGBs
	return acts
}

func TestStepStretchBailsOnPendingApply(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	// The apply settles at ApplyLatency; a stretch ending beyond it must
	// bail.
	requireBailUntouched(t, m, 4, ApplyLatency/2, idleActs(m), "apply inside stretch")
	// A stretch ending exactly at the settle instant batches: the
	// per-quantum path would not have committed it inside the stretch
	// either.
	if got := m.StepStretch(2, ApplyLatency/2, idleActs(m)); got != 2 {
		t.Fatalf("StepStretch ending at the settle instant = %d, want 2", got)
	}
}

func TestStepStretchBailsOnTDPExceedingPower(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(0, AllMax(m.Topology())); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	acts := overTDPActs(m)
	// Sanity: this activity really draws more than TDP.
	m.Step(time.Millisecond, acts)
	if pkg, _, _ := m.LastPower(); pkg[0] <= m.Params().TDPWatts {
		t.Fatalf("test activity draws %v W, need > TDP %v W", pkg[0], m.Params().TDPWatts)
	}
	requireBailUntouched(t, m, 10, time.Millisecond, acts, "above-TDP power")
}

func TestStepStretchBailsOnThrottle(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(0, AllMax(m.Topology())); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	acts := overTDPActs(m)
	for i := 0; i < 60; i++ {
		m.Step(100*time.Millisecond, acts)
	}
	if f := m.ThrottleFactor(0); f >= 1 {
		t.Fatalf("machine not throttled after budget drain (factor %v)", f)
	}
	// Even workless quanta must grind while a throttle factor is not 1:
	// limitPower may transition it back, bumping the epoch.
	requireBailUntouched(t, m, 10, time.Millisecond, idleActs(m), "throttle != 1")
}

func TestStepStretchBailsOnAutoUFSDrift(t *testing.T) {
	m := newTestMachine()
	m.SetAutoUFS(true)
	cfg := NewConfiguration(m.Topology())
	for i := range cfg.Threads {
		cfg.Threads[i] = true
	}
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	busy := idleActs(m)
	for i := range busy[0].Busy {
		busy[0].Busy[i] = 1
	}
	m.Step(10*time.Millisecond, busy)
	if got := m.Effective(0).UncoreMHz; got != MaxUncoreMHz {
		t.Fatalf("uncore = %d after load, want %d", got, MaxUncoreMHz)
	}
	// Idle activity decays the fractional UFS state every quantum: a
	// stretch would skip that drift, so StepStretch must grind.
	requireBailUntouched(t, m, 10, time.Millisecond, idleActs(m), "auto-UFS decay")
	// Under full load the governor pins the uncore at its maximum — a
	// fixed point of ufsNext — and the same machine batches fine (only
	// socket 0 has threads, so its power stays under TDP).
	if got := m.StepStretch(10, time.Millisecond, busy); got != 10 {
		t.Fatalf("StepStretch at the UFS fixed point = %d, want 10", got)
	}
}

func TestStepStretchBailsOnEETEngagement(t *testing.T) {
	m := newTestMachine()
	m.SetEPB(EPBBalanced)
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.CoreMHz[0] = TurboMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	// The energy-efficient turbo engages EETDelay after the request: a
	// stretch spanning that instant sees different engaged counts at its
	// first and last quantum tops.
	n := int(2 * EETDelay / time.Millisecond)
	requireBailUntouched(t, m, n, time.Millisecond, idleActs(m), "EET engagement inside stretch")
	// Under the performance bias there is no delayed engagement and the
	// same stretch batches.
	m.SetEPB(EPBPerformance)
	if got := m.StepStretch(n, time.Millisecond, idleActs(m)); got != n {
		t.Fatalf("StepStretch under EPBPerformance = %d, want %d; EET guard must not apply", got, n)
	}
}

// ---- StepStretch vs per-quantum equivalence -----------------------------

// TestStepStretchMatchesPerQuantum runs the same constant-state stretch
// through StepStretch and through n per-quantum Steps on an identical
// twin: integer-exact state (epochs, now) must match exactly, every float
// accumulator must agree within the regrouping epsilon, and the last-step
// power — computed from identical inputs on both paths — must match
// bitwise (DESIGN.md §16).
func TestStepStretchMatchesPerQuantum(t *testing.T) {
	build := func() (*Machine, []SocketActivity) {
		m := newTestMachine()
		cfg := NewConfiguration(m.Topology())
		for i := 0; i < 4; i++ {
			cfg.Threads[i] = true
			cfg.CoreMHz[i] = MinCoreMHz + 2*FreqStepMHz
		}
		if err := m.Apply(0, cfg); err != nil {
			t.Fatal(err)
		}
		settle(t, m)
		acts := idleActs(m)
		for i := 0; i < 4; i++ {
			acts[0].Spin[i] = 1
			acts[0].Instr[i] = 2.5e6
		}
		acts[0].Busy[0] = 0.02
		acts[0].MemGBs = 3.5
		return m, acts
	}
	const n, q = 500, time.Millisecond

	batched, acts := build()
	if got := batched.StepStretch(n, q, acts); got != n {
		t.Fatalf("StepStretch = %d, want %d (guards unexpectedly failed)", got, n)
	}
	ground, acts2 := build()
	for i := 0; i < n; i++ {
		ground.Step(q, acts2)
	}

	if a, b := batched.Now(), ground.Now(); a != b {
		t.Fatalf("now: batched %v vs ground %v", a, b)
	}
	for s := 0; s < batched.Topology().Sockets; s++ {
		if a, b := batched.StateEpoch(s), ground.StateEpoch(s); a != b {
			t.Fatalf("socket %d epoch: batched %d vs ground %d", s, a, b)
		}
		requireClose(t, "package J", batched.TrueEnergy(s, DomainPackage).Joules(), ground.TrueEnergy(s, DomainPackage).Joules())
		requireClose(t, "dram J", batched.TrueEnergy(s, DomainDRAM).Joules(), ground.TrueEnergy(s, DomainDRAM).Joules())
		requireClose(t, "rapl package J", batched.ReadEnergy(s, DomainPackage).Joules(), ground.ReadEnergy(s, DomainPackage).Joules())
		aA, aI, aS := batched.Residency(s)
		bA, bI, bS := ground.Residency(s)
		requireClose(t, "active s", aA, bA)
		requireClose(t, "idle s", aI, bI)
		requireClose(t, "sleep s", aS, bS)
	}
	requireClose(t, "psu J", batched.PSUEnergy().Joules(), ground.PSUEnergy().Joules())
	for gt := 0; gt < batched.Topology().TotalThreads(); gt++ {
		requireClose(t, "instr", batched.ReadInstructions(gt), ground.ReadInstructions(gt))
	}
	ap, ad, apsu := batched.LastPower()
	bp, bd, bpsu := ground.LastPower()
	for s := range ap {
		if ap[s] != bp[s] || ad[s] != bd[s] {
			t.Fatalf("socket %d last power: batched %v/%v vs ground %v/%v", s, ap[s], ad[s], bp[s], bd[s])
		}
	}
	if apsu != bpsu {
		t.Fatalf("last PSU power: batched %v vs ground %v", apsu, bpsu)
	}
}

// requireClose asserts two float observables agree within the regrouping
// epsilon (1e-9 relative; DESIGN.md §16).
func requireClose(t *testing.T, what string, a, b float64) {
	t.Helper()
	if a == b {
		return
	}
	rel := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	if rel > 1e-9 {
		t.Fatalf("%s: batched %v vs ground %v (rel %.3g)", what, a, b, rel)
	}
}

// ---- LastPowerInto ------------------------------------------------------

func TestLastPowerIntoMatchesLastPowerWithoutAllocating(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(0, AllMax(m.Topology())); err != nil {
		t.Fatal(err)
	}
	settle(t, m)

	pkg, dram, psu := m.LastPower()
	sockets := m.Topology().Sockets
	gotPkg := make([]units.Watt, sockets)
	gotDram := make([]units.Watt, sockets)
	psu2 := m.LastPowerInto(gotPkg, gotDram)
	for s := 0; s < sockets; s++ {
		if gotPkg[s] != pkg[s] || gotDram[s] != dram[s] {
			t.Fatalf("socket %d: LastPowerInto %v/%v vs LastPower %v/%v", s, gotPkg[s], gotDram[s], pkg[s], dram[s])
		}
	}
	if psu2 != psu {
		t.Fatalf("PSU: LastPowerInto %v vs LastPower %v", psu2, psu)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		m.LastPowerInto(gotPkg, gotDram)
	}); allocs != 0 {
		t.Fatalf("LastPowerInto allocates %.1f per call, want 0", allocs)
	}
}
