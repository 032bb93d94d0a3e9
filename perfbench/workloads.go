package main

import (
	"fmt"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/workload"
)

// spec is one benchmark workload: a repo workload, the load profile it
// runs under, and what the ECL run carries. Each cell of a workload is a
// baseline run followed by an ECL run with prewarm, as Table 1 builds
// them.
type spec struct {
	name string
	// newBase builds the repo workload the cell runs.
	newBase func() workload.Workload
	// probe scales the load to the measured saturation throughput
	// (bench.MeasureCapacity); without it the load is absolute.
	probe bool
	// load builds the offered load from the capacity (0 without probe).
	load func(capacity float64) loadprofile.Profile
	// productObs attaches the full observer (decision log, metrics,
	// energy meter) to the ECL run: on kv-idle it is the product surface
	// under test, not benchmark tracing.
	productObs bool
}

const (
	// twitterLen is the simulated length of a kv-twitter run.
	twitterLen = 20 * time.Second
	// ssbQps is ssb-fanout's fixed offered load. ssb-indexed's capacity
	// probe costs minutes of host time, so the load is absolute.
	ssbQps = 4000.0
	// ssbLen is the simulated length of an ssb-fanout run.
	ssbLen = 3 * time.Second
	// idleBurst is the length of each kv-idle burst, idleLen the whole
	// profile: two bursts around a zero-load plateau of hours.
	idleBurst = 2 * time.Second
	idleLen   = 3 * time.Hour
	// idleLevel is the kv-idle burst load as a share of capacity: about
	// the 4000 qps of BenchmarkIdleHeavyRun, a load the ECL serves by
	// racing to idle.
	idleLevel = 0.03
)

var specs = []spec{
	{
		name:    "kv-twitter",
		newBase: kvIndexed,
		probe:   true,
		load: func(capacity float64) loadprofile.Profile {
			return loadprofile.Twitter{BaseQps: 0.8 * capacity, Len: twitterLen}
		},
	},
	{
		name:    "ssb-fanout",
		newBase: func() workload.Workload { return workload.NewSSB(true) },
		load: func(float64) loadprofile.Profile {
			return loadprofile.Constant{Qps: ssbQps, Len: ssbLen}
		},
	},
	{
		name:    "kv-idle",
		newBase: kvIndexed,
		probe:   true,
		load: func(capacity float64) loadprofile.Profile {
			levels := make([]float64, idleLen/idleBurst)
			levels[0] = idleLevel * capacity
			levels[len(levels)-1] = idleLevel * capacity
			return loadprofile.Step{Levels: levels, StepLen: idleBurst}
		},
		productObs: true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// productObserver is the observer a product run attaches (eclsim
// -events/-eattr, eclserve): every decision event, the metrics registry
// and the energy-attribution meter.
func productObserver() *obs.Observer {
	ob := obs.New(0)
	ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	return ob
}

func kvIndexed() workload.Workload { return workload.NewKV(true) }
