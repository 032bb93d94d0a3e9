package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

// spin burns CPU in this package. The state stays in a local, so the
// loop touches no memory the race detector would instrument.
//
//go:noinline
func spin(d time.Duration) {
	x := spinSink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestSelfSecondsByPackage profiles a busy loop in this package and
// checks that the decoder attributes most of the CPU time to it.
func TestSelfSecondsByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	per, err := selfSecondsByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range per {
		total += s
	}
	if per["ecldb/perfbench"] < 0.5*total || total < 0.2 {
		t.Fatalf("self seconds by package = %v, want most of %.2f s in ecldb/perfbench", per, total)
	}
}

func TestPackageAndModuleOf(t *testing.T) {
	for sym, want := range map[string]string{
		"ecldb/internal/storage.(*HashIndex32).MultiGet": "storage",
		"ecldb/internal/obs/energyattr.(*Meter).Settle":  "obs",
		"ecldb/internal/workload.(*SSB).NewQuery.func1":  "workload",
		"runtime.mallocgc": "runtime",
		"ecldb/internal/bench.SweepN[go.shape.float64]": "bench",
	} {
		if got := moduleOf(packageOf(sym)); got != want {
			t.Errorf("moduleOf(packageOf(%q)) = %q, want %q", sym, got, want)
		}
	}
}
