package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ecldb/internal/storage"
)

func newSSBTestPartition(t testing.TB) *ssbPartition {
	t.Helper()
	return NewSSB(true).NewPartition(0, rand.New(rand.NewSource(3))).(*ssbPartition)
}

// scalarScanProbe is the reference the kernel replaced: a per-row Get,
// the Between predicate, and one LookupRow per match. It returns the
// probed row of every match, in scan order.
func scalarScanProbe(t *testing.T, sp *ssbPartition, start int, lo, hi int64) []uint64 {
	t.Helper()
	od := sp.lineorder.Column("orderdate")
	pred := storage.Between(lo, hi)
	var rows []uint64
	for row := start; row < start+ssbExecSampleRows; row++ {
		v := od.Get(row)
		if pred(v) {
			r, ok := sp.date.LookupRow(v)
			if !ok {
				t.Fatalf("reference probe missed date key %d", v)
			}
			rows = append(rows, uint64(r))
		}
	}
	return rows
}

// TestSSBScanProbeMatchesScalar is the differential check of the kernel:
// over seeded windows and the date ranges NewQuery draws (plus the
// extreme ones), the match count and every probed row equal the scalar
// path's.
func TestSSBScanProbeMatchesScalar(t *testing.T) {
	sp := newSSBTestPartition(t)
	rng := rand.New(rand.NewSource(5))
	n := sp.orderdate.Len()
	type window struct {
		start int
		lo    int64
	}
	cases := []window{
		{0, 0},
		{n - ssbExecSampleRows, ssbDateRows - ssbDateRows/8 - 1},
	}
	for i := 0; i < 500; i++ {
		cases = append(cases, window{rng.Intn(n - ssbExecSampleRows), int64(rng.Intn(ssbDateRows - ssbDateRows/8))})
	}
	total := 0
	for _, c := range cases {
		hi := c.lo + ssbDateRows/8
		want := scalarScanProbe(t, sp, c.start, c.lo, hi)
		got := sp.scanProbe(c.start, c.lo, hi)
		if got != len(want) {
			t.Fatalf("window %d, range [%d,%d]: kernel matched %d rows, scalar %d", c.start, c.lo, hi, got, len(want))
		}
		for i, r := range want {
			if sp.rows[i] != r {
				t.Fatalf("window %d, range [%d,%d]: match %d probed row %d, scalar %d", c.start, c.lo, hi, i, sp.rows[i], r)
			}
		}
		total += got
	}
	// An eighth of the date range selects about an eighth of the rows.
	if avg := float64(total) / float64(len(cases)); avg < 16 || avg > 48 {
		t.Fatalf("mean matches per window = %.1f, want about %d", avg, ssbExecSampleRows/8)
	}
	// A range covering every date matches the whole window.
	if got := sp.scanProbe(0, 0, ssbDateRows-1); got != ssbExecSampleRows {
		t.Fatalf("full date range matched %d of %d rows", got, ssbExecSampleRows)
	}
}

// TestSSBScanProbePanicsOnMissingDate checks that the kernel's results
// are checked: a date dimension lacking a key the fact rows reference
// is a storage-invariant violation and panics with that key.
func TestSSBScanProbePanicsOnMissingDate(t *testing.T) {
	sp := newSSBTestPartition(t)
	const start = 100
	missing := sp.orderdate.Get(start + 17)
	date, err := storage.NewTable("date", []string{"k", "year", "month"}, "k", ssbDateRows)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < ssbDateRows; k++ {
		if k == missing {
			continue
		}
		if _, err := date.Insert([]int64{k, 1992 + k/73, 1 + k%12}); err != nil {
			t.Fatal(err)
		}
	}
	sp.date = date
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probe of a missing date key did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprintf("missed key %d ", missing)) {
			t.Fatalf("panic %q does not name missing key %d", msg, missing)
		}
	}()
	sp.scanProbe(start, 0, ssbDateRows-1)
}

// TestSSBQueryRandomStream pins the rng contract of SSB's sampled
// execution: generation draws the query, the date range, and the
// coordinator; each op then draws its window start exactly once when it
// executes. A twin rng replaying those draws must end in the same state.
func TestSSBQueryRandomStream(t *testing.T) {
	w := NewSSB(true)
	st := w.NewPartition(0, rand.New(rand.NewSource(3)))
	rows := st.(*ssbPartition).orderdate.Len()
	rng := rand.New(rand.NewSource(9))
	twin := rand.New(rand.NewSource(9))
	for q := 0; q < 20; q++ {
		ops := w.NewQuery(rng, testParts)
		twin.Intn(len(ssbQueries))
		twin.Intn(ssbDateRows - ssbDateRows/8)
		twin.Intn(testParts)
		if len(ops) != testParts+1 || ops[testParts].HasExec() {
			t.Fatalf("query %d: %d ops, want %d scans plus an exec-free merge", q, len(ops), testParts)
		}
		for _, op := range ops[:testParts] {
			op.Run(st)
			twin.Intn(rows - ssbExecSampleRows)
		}
		if a, b := rng.Int63(), twin.Int63(); a != b {
			t.Fatalf("query %d: rng stream diverged from the replayed draws", q)
		}
	}
}

func TestSSBExecAllocatesNothing(t *testing.T) {
	sp := newSSBTestPartition(t)
	ops := NewSSB(true).NewQuery(rand.New(rand.NewSource(1)), 1)
	if allocs := testing.AllocsPerRun(100, func() { ops[0].Run(sp) }); allocs != 0 {
		t.Fatalf("SSB op exec allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkSSBScanProbe times one SSB op's sampled work on a built
// partition — the window draw, the 256-row scan, and the grouped date
// probes — the storage layer of an ssb cell's host cost.
func BenchmarkSSBScanProbe(b *testing.B) {
	sp := newSSBTestPartition(b)
	ops := NewSSB(true).NewQuery(rand.New(rand.NewSource(1)), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops[0].Run(sp)
	}
}
