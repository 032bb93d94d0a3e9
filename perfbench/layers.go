package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ecldb/internal/dodb"
	"ecldb/internal/ecl"
	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/msg"
	"ecldb/internal/perfmodel"
	"ecldb/internal/vtime"
	"ecldb/internal/workload"
)

// The layer micro-benchmarks time, in isolation, layers that have no
// seam inside Sim.Run, on seeded inputs shaped like the kv-indexed
// workload, so a regression in one of them points at the layer that
// caused it. Each reports the median ns per call over benchRounds rounds.
const benchRounds = 5

type layerBench struct {
	name string
	// run performs one round and returns its host time and call count.
	run func() (time.Duration, int, error)
}

func layerBenches(seed int64) ([]layerBench, error) {
	rng := rand.New(rand.NewSource(seed))
	kv := workload.NewKV(true).Characteristics()
	step, err := stepBench(rng, kv)
	if err != nil {
		return nil, err
	}
	stretch, err := stretchBench(rng)
	if err != nil {
		return nil, err
	}
	send, err := sendDeliverBench(rng)
	if err != nil {
		return nil, err
	}
	tick, err := tickBench(rng, kv)
	if err != nil {
		return nil, err
	}
	return []layerBench{
		{layerBenchNames[0], step},
		{layerBenchNames[1], stretch},
		{layerBenchNames[2], send},
		{layerBenchNames[3], latencyBench(rng)},
		{layerBenchNames[4], tick},
	}, nil
}

var layerBenchNames = []string{"hw.step_ns", "hw.step_stretch_ns", "msg.send_deliver_ns", "dodb.latency_record_ns", "ecl.tick_ns"}

// runLayerBenches returns each micro-benchmark's median ns per call.
func runLayerBenches(seed int64) (map[string]float64, error) {
	benches, err := layerBenches(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, d := range benches {
		per := make([]float64, 0, benchRounds)
		for r := 0; r < benchRounds; r++ {
			el, calls, err := d.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			per = append(per, float64(el.Nanoseconds())/float64(calls))
		}
		sort.Float64s(per)
		out[d.name] = per[len(per)/2]
	}
	return out, nil
}

// loadActs returns the per-socket activity of a machine running a
// workload with characteristics ch at utilization load, as the sim's
// step kernel derives it from the performance model.
func loadActs(m *hw.Machine, ch perfmodel.Characteristics, load float64, q time.Duration) []hw.SocketActivity {
	topo := m.Topology()
	acts := make([]hw.SocketActivity, topo.Sockets)
	for s := range acts {
		c := perfmodel.SocketCapacity(topo, m.Effective(s), ch, m.ThrottleFactor(s))
		n := topo.ThreadsPerSocket()
		a := hw.SocketActivity{
			Busy:     make([]float64, n),
			Spin:     make([]float64, n),
			Instr:    make([]float64, n),
			MemGBs:   c.MemGBsAtFull * load,
			DynScale: c.DynScale,
		}
		for i, r := range c.PerThread {
			if r > 0 {
				a.Busy[i] = load
				a.Spin[i] = 1 - load
				a.Instr[i] = r * load * q.Seconds()
			}
		}
		acts[s] = a
	}
	return acts
}

// stepBench times hw.Machine.Step: one 1 ms quantum of a machine at
// full configuration under seeded utilizations.
func stepBench(rng *rand.Rand, ch perfmodel.Characteristics) (func() (time.Duration, int, error), error) {
	m := hw.NewMachine(hw.HaswellEP(), hw.DefaultPowerParams(), rng.Int63())
	for s := 0; s < m.Topology().Sockets; s++ {
		if err := m.Apply(s, hw.AllMax(m.Topology())); err != nil {
			return nil, err
		}
	}
	const q = time.Millisecond
	m.Step(hw.ApplyLatency+q, loadActs(m, ch, 0.5, q))
	inputs := make([][]hw.SocketActivity, 64)
	for i := range inputs {
		inputs[i] = loadActs(m, ch, 0.1+0.8*rng.Float64(), q)
	}
	const calls = 20000
	return func() (time.Duration, int, error) {
		start := time.Now()
		for i := 0; i < calls; i++ {
			m.Step(q, inputs[i%len(inputs)])
		}
		return time.Since(start), calls, nil
	}, nil
}

// stretchBench times a 500-quantum hw.Machine.StepStretch over a
// constant-state stretch: four spinning threads at a low clock on socket
// 0, the shape of an ECL race-to-idle valley.
func stretchBench(rng *rand.Rand) (func() (time.Duration, int, error), error) {
	m := hw.NewMachine(hw.HaswellEP(), hw.DefaultPowerParams(), rng.Int63())
	topo := m.Topology()
	cfg := hw.NewConfiguration(topo)
	for i := 0; i < 4; i++ {
		cfg.Threads[i] = true
		cfg.CoreMHz[i] = hw.MinCoreMHz + 2*hw.FreqStepMHz
	}
	if err := m.Apply(0, cfg); err != nil {
		return nil, err
	}
	acts := loadActs(m, perfmodel.Characteristics{}, 0, time.Millisecond)
	for s := range acts {
		for i := range acts[s].Spin {
			acts[s].Spin[i] = 0
		}
	}
	for i := 0; i < 4; i++ {
		acts[0].Spin[i] = 1
		acts[0].Instr[i] = 2e6 + 1e6*rng.Float64()
	}
	acts[0].MemGBs = 1 + 4*rng.Float64()
	const q, n, calls = time.Millisecond, 500, 200
	// Settle the apply and let automatic uncore scaling reach its fixed
	// point, which StepStretch requires.
	for i := 0; i < 5000; i++ {
		m.Step(q, acts)
	}
	return func() (time.Duration, int, error) {
		start := time.Now()
		for i := 0; i < calls; i++ {
			if got := m.StepStretch(n, q, acts); got != n {
				return 0, 0, fmt.Errorf("StepStretch covered %d of %d quanta", got, n)
			}
		}
		return time.Since(start), calls, nil
	}, nil
}

// sendDeliverBench times one message through msg: Router.Send from a
// random origin socket to a random partition, RunCommEndpoint for remote
// ones, then Hub.Acquire, DequeueOne and Release by a home worker.
func sendDeliverBench(rng *rand.Rand) (func() (time.Duration, int, error), error) {
	topo := hw.HaswellEP()
	parts := topo.TotalThreads()
	homes := make([][]int, topo.Sockets)
	for p := 0; p < parts; p++ {
		homes[p%topo.Sockets] = append(homes[p%topo.Sockets], p)
	}
	r, err := msg.NewRouter(homes)
	if err != nil {
		return nil, err
	}
	const batch, rounds = 1024, 20
	pool := make([]msg.Message, batch)
	origin := make([]int, batch)
	target := make([]int, batch)
	for i := range origin {
		origin[i] = rng.Intn(topo.Sockets)
		target[i] = rng.Intn(parts)
	}
	return func() (time.Duration, int, error) {
		start := time.Now()
		delivered := 0
		for round := 0; round < rounds; round++ {
			for i := range pool {
				pool[i] = msg.Message{Partition: target[i], Instr: 1}
				if err := r.Send(origin[i], &pool[i]); err != nil {
					return 0, 0, err
				}
			}
			for s := 0; s < topo.Sockets; s++ {
				if _, err := r.RunCommEndpoint(s); err != nil {
					return 0, 0, err
				}
			}
			for s := 0; s < topo.Sockets; s++ {
				h := r.Hub(s)
				for {
					p, ok := h.Acquire(0)
					if !ok {
						break
					}
					for {
						m, err := h.DequeueOne(0, p)
						if err != nil {
							return 0, 0, err
						}
						if m == nil {
							break
						}
						delivered++
					}
					if err := h.Release(0, p); err != nil {
						return 0, 0, err
					}
				}
			}
		}
		if delivered != batch*rounds {
			return 0, 0, fmt.Errorf("delivered %d of %d messages", delivered, batch*rounds)
		}
		return time.Since(start), delivered, nil
	}, nil
}

// latencyBench times dodb.LatencyTracker.Record at the engine's window
// and limit, on log-normal latencies arriving at about 50k per second.
func latencyBench(rng *rand.Rand) func() (time.Duration, int, error) {
	lt := dodb.NewLatencyTracker(time.Second)
	lt.SetThreshold(100 * time.Millisecond)
	lats := make([]time.Duration, 1<<14)
	gaps := make([]time.Duration, len(lats))
	for i := range lats {
		lats[i] = time.Duration(2e6 * math.Exp(rng.NormFloat64()))
		gaps[i] = time.Duration(2e4 * rng.ExpFloat64())
	}
	var now time.Duration
	const calls = 200000
	return func() (time.Duration, int, error) {
		start := time.Now()
		for i := 0; i < calls; i++ {
			now += gaps[i%len(gaps)]
			lt.Record(lats[i%len(lats)], now)
		}
		return time.Since(start), calls, nil
	}
}

// tickBench times ecl.SocketECL.Tick on a socket loop with a
// model-evaluated kv-indexed profile, under a seeded utilization walk and
// occasional time-to-violation warnings. Between ticks the machine and
// clock advance one control interval in 10 ms steps (untimed), so every
// tick closes real measurements.
func tickBench(rng *rand.Rand, ch perfmodel.Characteristics) (func() (time.Duration, int, error), error) {
	topo := hw.HaswellEP()
	m := hw.NewMachine(topo, hw.DefaultPowerParams(), rng.Int63())
	clock := vtime.NewClock()
	cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
	if err != nil {
		return nil, err
	}
	prof := energy.NewProfile(topo, cfgs)
	if err := energy.EvaluateModel(prof, topo, m.Params(), ch, 0); err != nil {
		return nil, err
	}
	p := ecl.DefaultSocketParams(0)
	s := ecl.NewSocketECL(p, m, clock, prof)
	s.ResetAdaptation()
	const q, calls = 10 * time.Millisecond, 100
	util := 0.5
	return func() (time.Duration, int, error) {
		var el time.Duration
		for i := 0; i < calls; i++ {
			for t := time.Duration(0); t < p.Interval; t += q {
				m.Step(q, loadActs(m, ch, util, q))
				clock.Advance(q)
			}
			util = math.Min(0.95, math.Max(0.05, util+0.2*(rng.Float64()-0.5)))
			ttv := ecl.NoViolation
			if rng.Intn(10) == 0 {
				ttv = time.Duration((0.5 + 2.5*rng.Float64()) * float64(time.Second))
			}
			start := time.Now()
			s.Tick(util, ttv)
			el += time.Since(start)
		}
		return el, calls, nil
	}, nil
}
