package ecl

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecldb/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// rtiReplay drives a model-prewarmed socket ECL through a race-to-idle
// heavy schedule — zero demand, then light demand, with one superseding
// mid-interval tick — and renders every ConfigApply event the machine
// emitted as "<virtual ns> <config key>" lines.
func rtiReplay(t *testing.T) []byte {
	t.Helper()
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	ob := obs.New(0)
	w.m.SetObserver(ob)
	s.SetObserver(ob)
	for _, util := range []float64{0, 0, 0.05, 0.2, 0} {
		s.Tick(util, NoViolation)
		w.advance(time.Second)
	}
	// A tick landing mid-interval supersedes the rest of the running plan.
	s.Tick(0.1, NoViolation)
	w.advance(300 * time.Millisecond)
	s.Tick(0, NoViolation)
	w.advance(time.Second)

	var buf bytes.Buffer
	for _, e := range ob.Log.Events() {
		if e.Type == obs.EvConfigApply {
			fmt.Fprintf(&buf, "%d %s\n", e.At.Nanos(), e.S)
		}
	}
	return buf.Bytes()
}

// TestSegmentReplayGolden pins the (virtual time, configuration) sequence
// of the transitions an RTI plan schedules. The golden was recorded with
// the earlier executor that scheduled one closure per segment; the
// cursor-driven executor must reproduce it byte for byte, since equal
// deadlines and equal scheduling order are what keep the clock's
// (deadline, sequence) tie-break — and with it every digest — unchanged.
func TestSegmentReplayGolden(t *testing.T) {
	got := rtiReplay(t)
	path := filepath.Join("testdata", "rti_replay.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("replay diverges at line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("replay has %d lines, golden has %d", len(gl), len(wl))
	}
}

// TestSupersedingTickCancelsSegments ticks into a multi-cycle
// race-to-idle plan and supersedes it 20 ms in: every transition the
// first plan still had scheduled must be cancelled, so the transitions
// applied afterwards are exactly the new plan's, in order, one per
// segment start.
func TestSupersedingTickCancelsSegments(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	ob := obs.New(0)
	w.m.SetObserver(ob)

	s.Tick(0.2, NoViolation)
	if active, _, cycles := s.RTI(); !active || cycles < 2 {
		t.Fatalf("setup: want a multi-cycle RTI plan, got active=%v cycles=%d", active, cycles)
	}
	first := len(s.segs)
	w.advance(20 * time.Millisecond)
	if got := w.clock.Pending(); got >= first-1 || got == 0 {
		t.Fatalf("setup: %d of %d transitions pending after 20 ms", got, first-1)
	}

	tick := w.clock.Now()
	s.Tick(0.1, NoViolation)
	if got, want := w.clock.Pending(), len(s.segs)-1; got != want {
		t.Fatalf("after the superseding tick %d transitions pending, want the new plan's %d", got, want)
	}
	// The world steps the machine before the clock, so a transition due
	// inside a 1 ms quantum is stamped with the quantum's end.
	var want []string
	at := tick
	for i, seg := range s.segs {
		if i > 0 {
			stamp := (at + time.Millisecond - 1).Truncate(time.Millisecond)
			want = append(want, fmt.Sprintf("%v %s", stamp, w.m.ConfigKey(seg.cfg)))
		}
		at += seg.dur
	}
	mark := len(ob.Log.Events())
	w.advance(time.Second)
	var got []string
	for _, e := range ob.Log.Events()[mark:] {
		if e.Type == obs.EvConfigApply {
			got = append(got, fmt.Sprintf("%v %s", e.At.Duration(), e.S))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d transitions applied after the superseding tick, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestSteadyPlanAllocationFree pins the reused planning buffers: once
// warm, planning a race-to-idle interval touches no heap.
func TestSteadyPlanAllocationFree(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	for i := 0; i < 3; i++ {
		s.Tick(0.05, NoViolation)
		w.advance(time.Second)
	}
	if active, _, _ := s.RTI(); !active {
		t.Fatal("setup: want a race-to-idle plan")
	}
	if n := testing.AllocsPerRun(50, func() { s.plan(NoViolation) }); n != 0 {
		t.Errorf("steady RTI plan allocates %v times, want 0", n)
	}
}
