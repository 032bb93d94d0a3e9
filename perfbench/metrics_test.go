package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks that every emitted metric has a well-formed,
// unique name and a unit, and that the better direction is stated.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", m.Name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables in step: same names, units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), benchmark %q", i, w.Name, w.Why, specs[i].name)
		}
	}
	for _, c := range []struct {
		name      string
		json, def []metric
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.def) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", c.name, len(c.json), len(c.def))
			continue
		}
		for i, m := range c.def {
			j := c.json[i]
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, benchmark %s %s %s",
					c.name, i, j.Name, j.Unit, j.Better, m.Name, m.Unit, m.Better)
			}
		}
	}
}

// TestSpeedScale checks the host-speed scaling: a cell measured at the
// reference speed keeps its times, one on a host twice as slow halves
// them, and the calibration loop yields a positive score.
func TestSpeedScale(t *testing.T) {
	if got := speedScale(refCalibS, refCalibS); math.Abs(got-1) > 1e-12 {
		t.Errorf("scale at reference speed = %v, want 1", got)
	}
	if got := speedScale(2*refCalibS, 2*refCalibS); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale on a host twice as slow = %v, want 0.5", got)
	}
	if c := calibrate(); !(c > 0) {
		t.Errorf("calibration score %v, want > 0", c)
	}
}
