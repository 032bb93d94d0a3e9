package main

import (
	"strings"
	"testing"
)

func sampleFingerprint() fingerprint {
	return fingerprint{
		CapacityQps: 132378,
		Baseline:    runPrint{Completed: 1000, Submitted: 1000, EnergyJ: 4965.896625179331, PSUEnergyJ: 6070.78},
		ECL: runPrint{Completed: 990, Submitted: 1000, Violations: 7, MostApplied: "24t@{12x1900}/unc1200",
			EnergyJ: 3001.0764341385307, PSUEnergyJ: 3811.23},
	}
}

// TestFingerprintDiff checks the comparator's rule: integers, strings and
// the capacity exactly, energies within 1e-9 relative.
func TestFingerprintDiff(t *testing.T) {
	ref := sampleFingerprint()
	if d := ref.diff(ref); len(d) != 0 {
		t.Fatalf("identical fingerprints differ: %v", d)
	}
	ok := ref
	ok.ECL.EnergyJ *= 1 + 5e-10
	ok.Baseline.PSUEnergyJ *= 1 - 5e-10
	if d := ref.diff(ok); len(d) != 0 {
		t.Errorf("energies within 1e-9 relative rejected: %v", d)
	}
	for _, c := range []struct {
		field   string
		perturb func(*fingerprint)
	}{
		{"capacity_qps", func(f *fingerprint) { f.CapacityQps += 1e-9 }},
		{"baseline completed", func(f *fingerprint) { f.Baseline.Completed++ }},
		{"ecl submitted", func(f *fingerprint) { f.ECL.Submitted-- }},
		{"ecl violations", func(f *fingerprint) { f.ECL.Violations++ }},
		{"ecl most_applied", func(f *fingerprint) { f.ECL.MostApplied = "24t@{12x2000}/unc1200" }},
		{"ecl energy_j", func(f *fingerprint) { f.ECL.EnergyJ *= 1 + 2e-9 }},
		{"baseline psu_energy_j", func(f *fingerprint) { f.Baseline.PSUEnergyJ *= 1 - 2e-9 }},
	} {
		bad := ref
		c.perturb(&bad)
		d := ref.diff(bad)
		if len(d) != 1 || !strings.HasPrefix(d[0], c.field) {
			t.Errorf("perturbed %s: diff = %v, want one entry for it", c.field, d)
		}
	}
}

func TestFingerprintProperties(t *testing.T) {
	good := sampleFingerprint()
	if p := good.properties(); len(p) != 0 {
		t.Fatalf("valid fingerprint fails properties: %v", p)
	}
	over := good
	over.ECL.Completed = over.ECL.Submitted + 1
	costly := good
	costly.ECL.EnergyJ = costly.Baseline.EnergyJ
	for name, f := range map[string]fingerprint{"completed > submitted": over, "ecl energy not below baseline": costly} {
		if len(f.properties()) == 0 {
			t.Errorf("%s passes the property checks", name)
		}
	}
}

// TestReferencesRecorded checks that reference.json records every
// workload at the default workload seed, and that a perturbed reference
// fails the check.
func TestReferencesRecorded(t *testing.T) {
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		ref, ok := refs[s.name]["21"]
		if !ok {
			t.Errorf("reference.json has no %s fingerprint at seed 21", s.name)
			continue
		}
		if d := checkReference(s.name, 21, ref); len(d) != 0 {
			t.Errorf("%s: reference does not match itself: %v", s.name, d)
		}
		ref.ECL.Violations++
		if d := checkReference(s.name, 21, ref); len(d) == 0 {
			t.Errorf("%s: perturbed fingerprint passes the reference check", s.name)
		}
	}
	if d := checkReference("kv-twitter", 22, fingerprint{}); len(d) == 0 {
		t.Error("a seed without a recorded reference passes the check")
	}
}
