package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"ecldb/internal/hw"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/sim"
)

// runPrint is the simulated outcome of one sim.Run.
type runPrint struct {
	Completed   int64   `json:"completed"`
	Submitted   int64   `json:"submitted"`
	Violations  int64   `json:"violations"`
	MostApplied string  `json:"most_applied"`
	EnergyJ     float64 `json:"energy_j"`
	PSUEnergyJ  float64 `json:"psu_energy_j"`
}

func printOf(r *sim.Result) runPrint {
	return runPrint{
		Completed:   r.Completed,
		Submitted:   r.Submitted,
		Violations:  r.Violations,
		MostApplied: r.MostApplied,
		EnergyJ:     r.EnergyJ.Joules(),
		PSUEnergyJ:  r.PSUEnergyJ.Joules(),
	}
}

// fingerprint is the simulated outcome of one cell. It depends only on
// the workload and its seed, so every run of the same code reproduces
// it; a change that moves it changes what the simulator computes.
type fingerprint struct {
	CapacityQps float64  `json:"capacity_qps"`
	Baseline    runPrint `json:"baseline"`
	ECL         runPrint `json:"ecl"`
}

// relEps is the float rule of internal/relock: energies regrouped by a
// documented re-lock agree within it; integers and strings match
// exactly.
const relEps = 1e-9

func floatsAgree(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relEps*math.Max(math.Abs(a), math.Abs(b))
}

// diff lists every field where got departs from want: integers, strings
// and the capacity exactly, energies within relEps.
func (want fingerprint) diff(got fingerprint) []string {
	var out []string
	if want.CapacityQps != got.CapacityQps {
		out = append(out, fmt.Sprintf("capacity_qps %v, want %v", got.CapacityQps, want.CapacityQps))
	}
	for _, r := range []struct {
		name      string
		want, got runPrint
	}{{"baseline", want.Baseline, got.Baseline}, {"ecl", want.ECL, got.ECL}} {
		for _, f := range []struct {
			name      string
			want, got int64
		}{
			{"completed", r.want.Completed, r.got.Completed},
			{"submitted", r.want.Submitted, r.got.Submitted},
			{"violations", r.want.Violations, r.got.Violations},
		} {
			if f.want != f.got {
				out = append(out, fmt.Sprintf("%s %s %d, want %d", r.name, f.name, f.got, f.want))
			}
		}
		if r.want.MostApplied != r.got.MostApplied {
			out = append(out, fmt.Sprintf("%s most_applied %q, want %q", r.name, r.got.MostApplied, r.want.MostApplied))
		}
		for _, f := range []struct {
			name      string
			want, got float64
		}{
			{"energy_j", r.want.EnergyJ, r.got.EnergyJ},
			{"psu_energy_j", r.want.PSUEnergyJ, r.got.PSUEnergyJ},
		} {
			if !floatsAgree(f.want, f.got) {
				out = append(out, fmt.Sprintf("%s %s %v, want %v (beyond %g relative)", r.name, f.name, f.got, f.want, relEps))
			}
		}
	}
	return out
}

// properties checks what must hold on any seed: no run completes more
// queries than it admitted, and the ECL draws less energy than the
// baseline (ROADMAP: the ECL never draws more power than the baseline).
func (fp fingerprint) properties() []string {
	var out []string
	for _, r := range []struct {
		name string
		p    runPrint
	}{{"baseline", fp.Baseline}, {"ecl", fp.ECL}} {
		if r.p.Completed > r.p.Submitted {
			out = append(out, fmt.Sprintf("%s completed %d > submitted %d", r.name, r.p.Completed, r.p.Submitted))
		}
		if r.p.Completed <= 0 {
			out = append(out, fmt.Sprintf("%s completed no queries", r.name))
		}
	}
	if !(fp.ECL.EnergyJ < fp.Baseline.EnergyJ) {
		out = append(out, fmt.Sprintf("ecl energy %v J not below baseline %v J", fp.ECL.EnergyJ, fp.Baseline.EnergyJ))
	}
	return out
}

// conservation checks the energy meter of a finished run: its mirror of
// every RAPL counter equals the machine's true counter bit for bit, and
// the query, control and residual classes add back to the integrated
// joules within relEps.
func conservation(m *energyattr.Meter, machine *hw.Machine) []string {
	var out []string
	for sock := 0; sock < m.Sockets(); sock++ {
		for _, d := range []struct {
			meter int
			hw    hw.Domain
		}{{energyattr.DomainPackage, hw.DomainPackage}, {energyattr.DomainDRAM, hw.DomainDRAM}} {
			if integ, truth := m.Integrated(sock, d.meter), machine.TrueEnergy(sock, d.hw); integ != truth {
				out = append(out, fmt.Sprintf("socket %d %s: meter integrated %v J != machine %v J",
					sock, energyattr.DomainName(d.meter), integ, truth))
			}
		}
	}
	integ := m.IntegratedTotalJ().Joules()
	classes := m.QueriesTotalJ().Joules() + m.ControlTotalJ().Joules() + m.ResidualTotalJ().Joules()
	if integ <= 0 || !floatsAgree(integ, classes) {
		out = append(out, fmt.Sprintf("energy classes add to %v J, integrated %v J", classes, integ))
	}
	return out
}

//go:embed reference.json
var referenceJSON []byte

// references maps workload name, then workload seed, to the recorded
// fingerprint. A deliberate re-lock updates reference.json in its own
// benchmark change.
func references() (map[string]map[string]fingerprint, error) {
	var refs map[string]map[string]fingerprint
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkReference compares a cell's fingerprint against the recorded one.
func checkReference(workload string, seed int64, got fingerprint) []string {
	refs, err := references()
	if err != nil {
		return []string{err.Error()}
	}
	want, ok := refs[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return []string{fmt.Sprintf("no reference fingerprint for %s seed %d in reference.json", workload, seed)}
	}
	return want.diff(got)
}
