package energy

import (
	"testing"

	"ecldb/internal/hw"
	"ecldb/internal/perfmodel"
)

// BenchmarkProfileForPerformance measures the per-tick configuration
// selection of the socket-level loop — ForPerformanceCapped for the
// demanded level plus MostEfficientCapped for the race-to-idle anchor —
// over the full generated, model-evaluated Haswell-EP profile, sweeping
// the demand across the profile's score range.
func BenchmarkProfileForPerformance(b *testing.B) {
	topo := hw.HaswellEP()
	cfgs, err := Generate(topo, DefaultGeneratorParams())
	if err != nil {
		b.Fatal(err)
	}
	p := NewProfile(topo, cfgs)
	if err := EvaluateModel(p, topo, hw.DefaultPowerParams(), perfmodel.ComputeBound(), 0); err != nil {
		b.Fatal(err)
	}
	max := p.MaxScore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demand := max.Scale(float64(i%64) / 64)
		if p.ForPerformanceCapped(demand, 0) == nil || p.MostEfficientCapped(0) == nil {
			b.Fatal("no entry selected")
		}
	}
}
