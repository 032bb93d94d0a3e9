package energyattr

import (
	"math"
	"strings"
	"testing"
	"time"

	"ecldb/internal/units"
)

const q = time.Millisecond

// TestConservationIdentity checks the core contract on a hand-driven
// sequence: the derived residual closes the partition exactly, whatever
// mix of weights and windows the settles see.
func TestConservationIdentity(t *testing.T) {
	m := New(2)
	now := time.Duration(0)
	m.NoteReconfig(0, "cfgA", now)
	m.AddWindow(0, KindSettle, 0, 10*time.Microsecond)
	m.AddWindow(0, KindRTISleep, 500*time.Microsecond, 3*time.Millisecond)
	for i := 0; i < 5; i++ {
		m.Accrue(0, units.WattsOf(40+float64(i)), units.WattsOf(8), q)
		m.Accrue(1, units.WattsOf(25), units.WattsOf(5), q)
		m.Settle(0, now, now+q, 8, 2.5, 0.02)
		m.Settle(1, now, now+q, 0, 0, 0)
		now += q
	}
	m.CloseLedger(now)
	for s := 0; s < 2; s++ {
		for d := 0; d < NumDomains; d++ {
			// The exact identity mirrors the residual derivation
			// subtractively: integ − queries − control − residual is zero
			// to the last bit (see ResidualJ).
			left := m.Integrated(s, d) - m.QueriesJ(s, d) - m.ControlJ(s, d) - m.ResidualJ(s, d)
			if left != 0 {
				t.Errorf("socket %d domain %d: partition leaks %v", s, d, left)
			}
			if m.ResidualJ(s, d) < 0 {
				t.Errorf("socket %d domain %d: negative residual %v", s, d, m.ResidualJ(s, d))
			}
		}
	}
	if m.QueriesJ(0, DomainPackage) <= 0 {
		t.Error("socket 0 saw query weight but attributed no query energy")
	}
	if m.ControlKindJ(0, DomainPackage, KindSettle) <= 0 {
		t.Error("settle window claimed no energy")
	}
	if m.ControlKindJ(0, DomainPackage, KindRTISleep) <= 0 {
		t.Error("rti-sleep window claimed no energy")
	}
	if got := m.QueriesJ(1, DomainPackage); got != 0 {
		t.Errorf("idle socket attributed %v to queries", got)
	}
	if len(m.Ledger()) != 1 {
		t.Fatalf("ledger records = %d, want 1", len(m.Ledger()))
	}
	r := m.Ledger()[0]
	wantMeasured := m.Integrated(0, DomainPackage) + m.Integrated(0, DomainDRAM)
	if r.MeasuredJ != wantMeasured {
		t.Errorf("ledger measured %v, want %v", r.MeasuredJ, wantMeasured)
	}
}

// TestAccrueMirrorsCounterTerms checks bit-equality of the meter's
// integration mirror against an accumulator built from the same terms in
// the same order — the property the machine hook relies on.
func TestAccrueMirrorsCounterTerms(t *testing.T) {
	m := New(1)
	var pkg, dram units.Joule
	for i := 0; i < 1000; i++ {
		pw := units.WattsOf(30 + math.Sin(float64(i))*10)
		dw := units.WattsOf(6 + math.Cos(float64(i))*2)
		m.Accrue(0, pw, dw, q)
		pkg += pw.Over(q)
		dram += dw.Over(q)
	}
	if m.Integrated(0, DomainPackage) != pkg {
		t.Errorf("package mirror %v != reference %v", m.Integrated(0, DomainPackage), pkg)
	}
	if m.Integrated(0, DomainDRAM) != dram {
		t.Errorf("dram mirror %v != reference %v", m.Integrated(0, DomainDRAM), dram)
	}
}

// TestWindowConsumption drives a window across several settle spans and
// checks each span claims exactly its overlap, and cancellation clips
// the unelapsed tail.
func TestWindowConsumption(t *testing.T) {
	m := New(1)
	// Window covering [1ms, 2.5ms): spans [1,2) fully, [2,3) half.
	m.AddWindow(0, KindDiscovery, q, q*5/2)
	var claimed [4]units.Joule
	for i := 0; i < 4; i++ {
		m.Accrue(0, units.WattsOf(10), 0, q)
		m.Settle(0, time.Duration(i)*q, time.Duration(i+1)*q, 0, 0, 0)
		claimed[i] = m.ControlKindJ(0, DomainPackage, KindDiscovery)
	}
	perQ := units.WattsOf(10).Over(q)
	if claimed[0] != 0 {
		t.Errorf("span 0 claimed %v before the window", claimed[0])
	}
	if got, want := claimed[1]-claimed[0], perQ; got != want {
		t.Errorf("span 1 claimed %v, want full quantum %v", got, want)
	}
	if got, want := claimed[2]-claimed[1], perQ.Scale(0.5); math.Abs(got.Div(want)-1) > 1e-12 {
		t.Errorf("span 2 claimed %v, want half quantum %v", got, want)
	}
	if claimed[3] != claimed[2] {
		t.Errorf("span 3 claimed %v after the window ended", claimed[3]-claimed[2])
	}

	// Cancellation: a future window never claims once canceled.
	m2 := New(1)
	m2.AddWindow(0, KindRTISleep, 0, 2*q)
	m2.CancelFrom(0, KindRTISleep, q)
	m2.Accrue(0, units.WattsOf(10), 0, 2*q)
	m2.Settle(0, 0, 2*q, 0, 0, 0)
	if got, want := m2.ControlKindJ(0, DomainPackage, KindRTISleep), units.WattsOf(10).Over(q); got != want {
		t.Errorf("clipped window claimed %v, want %v", got, want)
	}
	m2.CancelFrom(0, KindRTISleep, 0)
	m2.AddWindow(0, KindRTISleep, 3*q, 4*q)
	m2.CancelFrom(0, KindRTISleep, 2*q)
	m2.Accrue(0, units.WattsOf(10), 0, 2*q)
	m2.Settle(0, 2*q, 4*q, 0, 0, 0)
	if got := m2.ControlKindJ(0, DomainPackage, KindRTISleep); got != units.WattsOf(10).Over(q) {
		t.Errorf("canceled window claimed energy: %v", got)
	}
}

// TestShareClamping: weights can't claim more than the whole socket, and
// windows only claim from the remainder.
func TestShareClamping(t *testing.T) {
	m := New(1)
	m.AddWindow(0, KindRTISleep, 0, q)
	m.Accrue(0, units.WattsOf(10), 0, q)
	// Oversubscribed weight (> active): clamps to the full socket, so the
	// window's claim must be zero.
	m.Settle(0, 0, q, 2, 5, 0.02)
	total := units.WattsOf(10).Over(q)
	if got := m.QueriesJ(0, DomainPackage); got != total {
		t.Errorf("clamped query share %v, want full %v", got, total)
	}
	if got := m.ControlJ(0, DomainPackage); got != 0 {
		t.Errorf("control claimed %v from a fully query-attributed span", got)
	}
	if got := m.ResidualJ(0, DomainPackage); got != 0 {
		t.Errorf("residual %v on a fully attributed span", got)
	}
}

// TestFlushPendingToResidual: unsettled accruals stay integrated but
// unattributed.
func TestFlushPendingToResidual(t *testing.T) {
	m := New(1)
	m.Accrue(0, units.WattsOf(50), units.WattsOf(10), time.Second)
	m.FlushPending()
	m.Settle(0, time.Second, time.Second+q, 4, 4, 0) // nothing pending
	if got := m.QueriesJ(0, DomainPackage); got != 0 {
		t.Errorf("flushed energy leaked to queries: %v", got)
	}
	if got, want := m.ResidualJ(0, DomainPackage), units.WattsOf(50).Over(time.Second); got != want {
		t.Errorf("residual %v, want %v", got, want)
	}
}

// TestBaselineInterp: the counterfactual interpolates between spin and
// full power on utilization.
func TestBaselineInterp(t *testing.T) {
	m := New(1)
	m.SetBaseline(0, units.WattsOf(60), units.WattsOf(4), units.WattsOf(120), units.WattsOf(12), 1e9)
	m.AccrueBaseline(0, 0, q)                 // idle: spin power
	m.AccrueBaseline(0, 1e9*q.Seconds(), q)   // full: full power
	m.AccrueBaseline(0, 0.5e9*q.Seconds(), q) // half
	want := units.WattsOf(64).Over(q) + units.WattsOf(132).Over(q) + units.WattsOf(98).Over(q)
	if got := m.BaselineTotalJ(); math.Abs(got.Div(want)-1) > 1e-12 {
		t.Errorf("baseline %v, want %v", got, want)
	}
	m.Accrue(0, units.WattsOf(30), 0, q)
	if m.SavedJ() <= 0 {
		t.Errorf("saved %v, want positive", m.SavedJ())
	}
}

// TestQuantile: bucket midpoints land within one bucket width of the
// observed population.
func TestQuantile(t *testing.T) {
	m := New(1)
	cls := m.ClassIndex("kv")
	for i := 0; i < 1000; i++ {
		m.ObserveQuery(cls, 3, units.JoulesOf(1e-3), false)
	}
	got := m.Quantile(0.5).Joules()
	if got < 1e-3/1.2 || got > 1e-3*1.2 {
		t.Errorf("p50 %g, want ~1e-3 within bucket resolution", got)
	}
	if m.Quantile(0.99) != m.Quantile(0.5) {
		t.Errorf("uniform population: p99 %v != p50 %v", m.Quantile(0.99), m.Quantile(0.5))
	}
	if m.QueryCount() != 1000 {
		t.Errorf("count %d, want 1000", m.QueryCount())
	}
	cs := m.Classes()
	if len(cs) != 1 || cs[0].Queries != 1000 || cs[0].Ops != 3000 {
		t.Errorf("class stats %+v", cs)
	}
	if got := cs[0].EnergyJ.PerOp(cs[0].Ops); math.Abs(got.Joules()/(1e-3/3)-1) > 1e-9 {
		t.Errorf("J/op %v", got)
	}
}

// TestNilMeterSafe: a nil meter must no-op through the whole API.
func TestNilMeterSafe(t *testing.T) {
	var m *Meter
	m.Accrue(0, 1, 1, q)
	m.AddWindow(0, KindSettle, 0, q)
	m.CancelFrom(0, KindSettle, 0)
	if m.Settle(0, 0, q, 1, 1, 0) != 0 {
		t.Error("nil Settle returned nonzero")
	}
	m.FlushPending()
	m.SetBaseline(0, 1, 1, 2, 2, 1)
	m.AccrueBaseline(0, 1, q)
	m.NoteReconfig(0, "x", 0)
	m.CloseLedger(q)
	m.ObserveQuery(m.ClassIndex("kv"), 1, 1, false)
	m.ObserveDropped(0, 1)
	m.AddSpan(EnergySpan{})
	if m.Enabled() || m.Sockets() != 0 || m.QueryCount() != 0 {
		t.Error("nil meter reported live state")
	}
	if m.IntegratedTotalJ() != 0 || m.SavedJ() != 0 || m.Quantile(0.5) != 0 {
		t.Error("nil meter reported nonzero totals")
	}
	if m.Report() != "" || m.WriteJSONL(nil) != nil || m.Snapshot() != nil {
		t.Error("nil meter exported state")
	}
}

// TestExports: the report and JSONL render the recorded state, and a
// snapshot is independent of later mutation.
func TestExports(t *testing.T) {
	m := New(1)
	cls := m.ClassIndex("tatp")
	m.Accrue(0, units.WattsOf(40), units.WattsOf(8), q)
	m.Settle(0, 0, q, 8, 2, 0.02)
	m.ObserveQuery(cls, 5, units.JoulesOf(2e-4), true)
	m.AddSpan(EnergySpan{QID: 7, Class: "tatp", Done: q, Ops: 5, EnergyJ: units.JoulesOf(2e-4), Violated: true})
	m.NoteReconfig(0, "c8 2.3GHz", 0)
	m.CloseLedger(q)

	rep := m.Report()
	for _, want := range []string{"ENERGY ATTRIBUTION", "tatp", "audit ledger", "c8 2.3GHz"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	var sb strings.Builder
	if err := m.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	jl := sb.String()
	for _, want := range []string{`"type":"domain"`, `"type":"class"`, `"type":"span"`, `"type":"reconfig"`, `"type":"summary"`} {
		if !strings.Contains(jl, want) {
			t.Errorf("jsonl missing %q:\n%s", want, jl)
		}
	}

	snap := m.Snapshot()
	before := snap.IntegratedTotalJ()
	m.Accrue(0, units.WattsOf(40), units.WattsOf(8), q)
	if snap.IntegratedTotalJ() != before {
		t.Error("snapshot shares state with the live meter")
	}
}

// TestLedgerDropsZeroLengthReigns: a reign that ends at the instant it
// began — a second reconfiguration at the same instant, or one landing on
// the run's end — leaves no Start == End record, and the remaining
// records still tile the socket's timeline from the first
// reconfiguration to CloseLedger with no gap.
func TestLedgerDropsZeroLengthReigns(t *testing.T) {
	m := New(1)
	now := time.Duration(0)
	step := func() {
		m.Accrue(0, units.WattsOf(40), units.WattsOf(8), q)
		m.Settle(0, now, now+q, 8, 0, 0)
		now += q
	}
	m.NoteReconfig(0, "cfgA", now)
	step()
	m.NoteReconfig(0, "cfgB", now)
	m.NoteReconfig(0, "cfgC", now) // cfgB reigns for no time
	step()
	step()
	m.NoteReconfig(0, "cfgD", now) // run ends as cfgD takes over
	m.CloseLedger(now)

	led := m.Ledger()
	var keys []string
	var measured units.Joule
	for i, r := range led {
		if r.Start == r.End {
			t.Errorf("record %d (%s): zero-length reign at %v", i, r.Key, r.Start)
		}
		if i > 0 && r.Start != led[i-1].End {
			t.Errorf("record %d (%s) starts at %v, previous ends at %v", i, r.Key, r.Start, led[i-1].End)
		}
		keys = append(keys, r.Key)
		measured += r.MeasuredJ
	}
	if got := strings.Join(keys, ","); got != "cfgA,cfgC" {
		t.Fatalf("ledger keys %q, want cfgA,cfgC", got)
	}
	if led[0].Start != 0 || led[len(led)-1].End != now {
		t.Errorf("ledger covers [%v, %v), want [0, %v)", led[0].Start, led[len(led)-1].End, now)
	}
	if want := m.Integrated(0, DomainPackage) + m.Integrated(0, DomainDRAM); measured != want {
		t.Errorf("ledger measured %v, want the integrated %v", measured, want)
	}
}
