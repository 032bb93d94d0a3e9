package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/trace"
	"ecldb/internal/workload"
)

// runDigest executes one seeded ECL run and folds every observable the
// experiments report into a single hash: the full recorded time series
// (latency, power, load, threads — values as exact float bits), the
// energy counters, the query counters, and the socket-0 profile skyline.
// Two runs with the same seed must produce byte-identical digests — the
// determinism contract DESIGN.md promises and ecllint polices. This is
// stricter than comparing summary scalars: a single reordered map
// iteration anywhere in the stack perturbs some series sample or skyline
// entry and flips the digest.
func runDigest(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	ob := obs.New(0)
	ob.Trace = trace.New(3)
	sum, _, _ := digestRun(t, Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 6000, Len: 15 * time.Second},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     seed,
		Obs:      ob,
	})
	return sum
}

// digestRun builds and runs a simulation from opts and hashes every
// exported observable (see runDigest). It returns the Sim and Result too
// so callers can inspect internals (e.g. fast-forward counters) and compare
// observables across float groupings after the run.
func digestRun(t *testing.T, opts Options) ([sha256.Size]byte, *Sim, *Result) {
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

	// The rendered trace CSV, byte for byte.
	if err := res.Rec.WriteCSV(h); err != nil {
		t.Fatal(err)
	}

	// Profile skyline: the per-socket energy profiles are runtime state
	// the controllers maintain; their measured entries must land
	// identically too.
	if s.Controller() != nil {
		tpc := s.Machine().Topology().ThreadsPerCore
		for _, e := range s.Controller().Socket(0).Profile().Skyline() {
			fmt.Fprintln(h, e.Config.Key(tpc))
			writeF64(h, e.PowerW.Watts())
			writeF64(h, e.Score.PerSecond())
			writeU64(h, uint64(e.LastEval))
		}
	}

	// Observability exports: the JSONL decision-event stream, the
	// Prometheus exposition, and the explain report are all part of the
	// determinism contract — byte-identical per seed. When query tracing
	// is attached, the Perfetto export and the phase-breakdown table join
	// the digest too.
	if ob := opts.Obs; ob != nil {
		if err := ob.Log.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		if err := ob.Metrics.WriteProm(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(h, obs.Report(ob.Log))
		if ob.Trace != nil {
			if err := ob.Trace.WritePerfetto(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprint(h, ob.Trace.Report())
		}
		// Energy attribution joins the contract: the JSONL export and the
		// rendered report must be byte-identical per seed too.
		if ob.Energy != nil {
			if err := ob.Energy.WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprint(h, ob.Energy.Report())
		}
	}

	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, s, res
}

func writeF64(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestDeterminismByteIdentical runs the same seeded scenario twice and
// demands bit-for-bit equality of the digest. scripts/check.sh and CI run
// this test under the race detector as well: with a single-threaded core
// the race run must be silent, proving the goroutine-freedom ecllint
// enforces statically also holds at runtime.
func TestDeterminismByteIdentical(t *testing.T) {
	a := runDigest(t, 42)
	b := runDigest(t, 42)
	if a != b {
		t.Fatalf("same seed produced different digests:\n  %x\n  %x", a, b)
	}
}

// TestDeterminismSeedSensitivity guards the digest against vacuity: a
// different seed must change it, or the digest would pass even if the
// run ignored its inputs.
func TestDeterminismSeedSensitivity(t *testing.T) {
	a := runDigest(t, 42)
	b := runDigest(t, 43)
	if a == b {
		t.Fatal("different seeds produced identical digests; the digest is not observing the run")
	}
}
