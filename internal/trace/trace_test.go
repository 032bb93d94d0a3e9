package trace

import (
	"testing"
	"time"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(time.Duration(i)*time.Second, v)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty series stats should be 0")
	}
	if s.Integrate(time.Hour) != 0 {
		t.Error("empty series integral should be 0")
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	var s Series
	s.Add(2*time.Second, 1)
	s.Add(time.Second, 2)
}

func TestIntegratePiecewiseConstant(t *testing.T) {
	var s Series
	s.Add(0, 10)             // 10 W for 2 s = 20 J
	s.Add(2*time.Second, 20) // 20 W for 3 s = 60 J
	got := s.Integrate(5 * time.Second)
	if got != 80 {
		t.Errorf("Integrate = %v, want 80", got)
	}
	// End before the last sample: that segment contributes nothing
	// negative.
	if got := s.Integrate(2 * time.Second); got != 20 {
		t.Errorf("Integrate(2s) = %v, want 20", got)
	}
}

// TestIntegrateClipsToEnd is a regression test: an integration horizon
// falling inside the series must clip the straddling segment to end and
// ignore samples at or after it. The unclipped version integrated the
// full segment past end and over-counted.
func TestIntegrateClipsToEnd(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(2*time.Second, 20)
	s.Add(4*time.Second, 40)
	// 10 W for 2 s + 20 W for 1 s (clipped at 3 s); the 4 s sample is
	// beyond the horizon entirely.
	if got := s.Integrate(3 * time.Second); got != 40 {
		t.Errorf("Integrate(3s) = %v, want 40", got)
	}
	// Horizon inside the first segment.
	if got := s.Integrate(time.Second); got != 10 {
		t.Errorf("Integrate(1s) = %v, want 10", got)
	}
	// Degenerate horizon.
	if got := s.Integrate(0); got != 0 {
		t.Errorf("Integrate(0) = %v, want 0", got)
	}
}

func TestCountAbove(t *testing.T) {
	var s Series
	for i, v := range []float64{50, 150, 99, 101, 100} {
		s.Add(time.Duration(i), v)
	}
	if got := s.CountAbove(100); got != 2 {
		t.Errorf("CountAbove(100) = %d, want 2", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Add("power", 0, 100)
	r.Add("power", time.Second, 110)
	r.Add("latency", 0, 5)
	if got := r.Series("power").Len(); got != 2 {
		t.Errorf("power samples = %d", got)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "power" || names[1] != "latency" {
		t.Errorf("Names = %v", names)
	}
	// Series is idempotent.
	if r.Series("power") != r.Series("power") {
		t.Error("Series not idempotent")
	}
}
