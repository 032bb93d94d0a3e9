package sim

import (
	"runtime"
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/workload"
)

// idleRunMallocs runs an ECL-governed zero-load simulation of the given
// length — every interval a race-to-idle plan of idle slices — with a
// ring-bounded event log and the energy meter attached, and returns the
// heap allocations of construction plus run.
func idleRunMallocs(t *testing.T, dur time.Duration) uint64 {
	t.Helper()
	ob := obs.New(16)
	ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	opts := Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 0, Len: dur},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     7,
		Obs:      ob,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// idleAllocsPerInterval bounds the heap allocations of one zero-load
// control interval across both sockets. Each socket's race-to-idle plan
// holds ~30 idle slices, and each scheduled transition still allocates
// the clock's task node, so a clone- and closure-free interval costs ~60
// allocations plus amortized buffer and ledger growth; re-cloning the
// configuration, formatting its key, or capturing a closure per
// transition costs several times that.
const idleAllocsPerInterval = 100

// TestIdleECLAllocationBound locks in the allocation cost of
// reconfiguration on the race-to-idle path. Differencing a short and a
// long zero-load run cancels construction and prewarm, leaving the
// allocations per extra control interval.
func TestIdleECLAllocationBound(t *testing.T) {
	const short, long = 4 * time.Second, 12 * time.Second
	a, b := idleRunMallocs(t, short), idleRunMallocs(t, long)
	intervals := float64((long - short) / time.Second)
	perInterval := (float64(b) - float64(a)) / intervals
	t.Logf("%.1f allocations per control interval", perInterval)
	if perInterval > idleAllocsPerInterval {
		t.Errorf("%.1f allocations per control interval, want at most %d", perInterval, idleAllocsPerInterval)
	}
}
