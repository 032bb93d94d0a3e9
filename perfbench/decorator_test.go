package main

import (
	"math/rand"
	"slices"
	"testing"

	"ecldb/internal/perfmodel"
	"ecldb/internal/workload"
)

type fakeWL struct{}

func (fakeWL) Name() string                                         { return "fake" }
func (fakeWL) Indexed() bool                                        { return true }
func (fakeWL) Characteristics() perfmodel.Characteristics           { return perfmodel.Characteristics{} }
func (fakeWL) NewPartition(int, *rand.Rand) workload.PartitionState { return nil }
func (fakeWL) NewQuery(*rand.Rand, int) []workload.Op               { return []workload.Op{{}} }

type fakeBatch struct{}

func (fakeBatch) AppendQuery(dst []workload.Op, _ *rand.Rand, _ int) []workload.Op {
	return append(dst, workload.Op{})
}

type fakeSock struct{}

func (fakeSock) SocketCharacteristics(int) perfmodel.Characteristics {
	return perfmodel.Characteristics{}
}

type fakeVer struct{}

func (fakeVer) CharacteristicsVersion() uint64 { return 7 }

// TestDecoratorForwardsExactly checks every combination of the optional
// interfaces dodb.Engine type-asserts: the decorator implements exactly
// the ones its inner workload implements, and keeps the name.
func TestDecoratorForwardsExactly(t *testing.T) {
	inners := []workload.Workload{
		fakeWL{},
		struct {
			fakeWL
			fakeBatch
		}{},
		struct {
			fakeWL
			fakeSock
		}{},
		struct {
			fakeWL
			fakeVer
		}{},
		struct {
			fakeWL
			fakeBatch
			fakeSock
		}{},
		struct {
			fakeWL
			fakeBatch
			fakeVer
		}{},
		struct {
			fakeWL
			fakeSock
			fakeVer
		}{},
		struct {
			fakeWL
			fakeBatch
			fakeSock
			fakeVer
		}{},
		workload.NewKV(true),
		workload.NewSSB(true),
	}
	for i, in := range inners {
		d := decorate(in, &layerTimes{})
		_, ib := in.(workload.BatchQuerier)
		_, db := d.(workload.BatchQuerier)
		_, is := in.(workload.PerSocketWorkload)
		_, ds := d.(workload.PerSocketWorkload)
		_, iv := in.(workload.Versioned)
		_, dv := d.(workload.Versioned)
		if ib != db || is != ds || iv != dv {
			t.Errorf("inner %d: batch/perSocket/versioned inner %v/%v/%v, decorated %v/%v/%v", i, ib, is, iv, db, ds, dv)
		}
		if d.Name() != in.Name() {
			t.Errorf("inner %d: decorated name %q, want %q", i, d.Name(), in.Name())
		}
		if iv && d.(workload.Versioned).CharacteristicsVersion() != 7 {
			t.Errorf("inner %d: version not forwarded", i)
		}
	}
}

// TestDecoratorPreservesQueries checks that the decorated workload draws
// the same queries from the same rng, and that executing an op runs the
// inner workload's sampled work and counts it.
func TestDecoratorPreservesQueries(t *testing.T) {
	for _, in := range []workload.Workload{workload.NewKV(true), workload.NewSSB(true)} {
		var lt layerTimes
		d := decorate(in, &lt)
		r1, r2 := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		wantSt := in.NewPartition(0, rand.New(rand.NewSource(4)))
		gotSt := d.NewPartition(0, rand.New(rand.NewSource(4)))
		for q := 0; q < 20; q++ {
			want := in.NewQuery(r1, 4)
			got := d.NewQuery(r2, 4)
			if len(got) != len(want) {
				t.Fatalf("%s: query %d has %d ops, want %d", in.Name(), q, len(got), len(want))
			}
			for i := range got {
				if got[i].Partition != want[i].Partition || got[i].Instr != want[i].Instr || got[i].HasExec() != want[i].HasExec() {
					t.Fatalf("%s: query %d op %d = %+v, want %+v", in.Name(), q, i, got[i], want[i])
				}
				// SSB's sampled scans draw from the generator's rng when
				// they run, so both sides execute to stay in step.
				want[i].Run(wantSt)
				got[i].Run(gotSt)
			}
		}
		if lt.queries != 20 || lt.execOps == 0 || lt.partitions != 1 {
			t.Errorf("%s: counted %d queries, %d exec ops, %d partitions", in.Name(), lt.queries, lt.execOps, lt.partitions)
		}
	}
}

// TestTracedCellNeutral runs every workload untraced and traced: the
// decorator, hook, tracer and CPU profile must leave the simulated
// fingerprint unchanged, and it must match the recorded reference.
func TestTracedCellNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full cells")
	}
	for _, s := range specs {
		plain, err := runCell(s, 21, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runCell(s, 21, true)
		if err != nil {
			t.Fatal(err)
		}
		if d := plain.Print.diff(traced.Print); len(d) != 0 {
			t.Errorf("%s: traced fingerprint differs: %v", s.name, d)
		}
		for _, r := range []cellResult{plain, traced} {
			if len(r.Failures) != 0 {
				t.Errorf("%s: checks failed: %v", s.name, r.Failures)
			}
		}
		if d := checkReference(s.name, 21, plain.Print); len(d) != 0 {
			t.Errorf("%s: differs from reference.json: %v", s.name, d)
		}
		for _, m := range perLayer {
			// The tracing overhead, the calibration score and the layer
			// micro-benchmarks are measured once per run, not per cell.
			runLevel := m.Name == "trace.overhead_pct" || m.Name == "host.calib_s" || slices.Contains(layerBenchNames, m.Name)
			if _, ok := traced.Layers[m.Name]; !ok && !runLevel {
				t.Errorf("%s: traced cell does not measure %s", s.name, m.Name)
			}
		}
	}
}
