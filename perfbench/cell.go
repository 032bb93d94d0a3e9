package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"ecldb/internal/bench"
	"ecldb/internal/obs"
	"ecldb/internal/obs/trace"
	"ecldb/internal/sim"
	"ecldb/internal/workload"
)

// traceEvery is the query-span sampling period of the traced run.
const traceEvery = 64

// cellResult is what one cell reports to the run.
type cellResult struct {
	// SetupS and RunS are host CPU seconds; Scale converts them to
	// reference-host seconds (speedScale).
	SetupS, RunS, Scale float64
	AllocMB             float64
	Print               fingerprint
	// Failures lists every failed output check.
	Failures []string
	// Layers holds the per-layer metrics of a traced cell.
	Layers map[string]float64
}

func (c cellResult) savingPct() float64 {
	return 100 * (1 - c.Print.ECL.EnergyJ/c.Print.Baseline.EnergyJ)
}
func (c cellResult) violationPct() float64 {
	return 100 * float64(c.Print.ECL.Violations) / float64(c.Print.ECL.Completed)
}
func (c cellResult) completedPct() float64 {
	return 100 * float64(c.Print.ECL.Completed) / float64(c.Print.ECL.Submitted)
}

// cellTimer sums host CPU seconds per phase of a cell, and the wall
// seconds of the two runs.
type cellTimer struct{ capacity, newSims, prewarm, runBase, runECL, runWall float64 }

// cpuSeconds reads the CPU time this process has used, user and system.
// Time it spends waiting to run does not count: behind other processes,
// or while the host of a virtual machine runs another guest (steal time,
// on kernels that account it). A cell runs on one thread (GOMAXPROCS is
// 1), so its CPU time is its wall time without those waits.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// timed adds f's CPU seconds to *dst.
func timed(dst *float64, f func()) {
	start := cpuSeconds()
	f()
	*dst += cpuSeconds() - start
}

// wallTimed adds f's wall seconds to *dst.
func wallTimed(dst *float64, f func()) {
	start := time.Now()
	f()
	*dst += time.Since(start).Seconds()
}

// runCell runs one cell of a workload on the calling goroutine: the
// capacity probe (on workloads scaled to capacity), the baseline run and
// the ECL run with prewarm, in the order bench.Table1SingleRow uses. A
// traced cell wraps the workload in the timing decorator, attaches the
// quantum-counting hook and a query tracer, and takes a CPU profile of
// the two runs; its simulated outcome must not change.
func runCell(s spec, seed int64, traced bool) (cellResult, error) {
	var res cellResult
	bench.SetParallelism(1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()

	// The probe and the cell's own sims count into separate layerTimes:
	// the probe's queries are set-up work, the sims' queries run work
	// (sim.New and Prewarm generate none).
	var probeLT, lt layerTimes
	var hook quantumCounter
	wrap := func(wl workload.Workload, t *layerTimes) workload.Workload {
		if traced {
			return decorate(wl, t)
		}
		return wl
	}
	var ct cellTimer
	var capacity float64
	var err error
	if s.probe {
		// sim.MeasureCapacity is what bench.MeasureCapacity runs on a
		// cold call; its process-level memo would make every cell after
		// the first skip the probe.
		timed(&ct.capacity, func() { capacity, err = sim.MeasureCapacity(wrap(s.newBase(), &probeLT), seed) })
		if err != nil {
			return res, fmt.Errorf("capacity probe: %w", err)
		}
	}
	load := s.load(capacity)
	opts := func(g sim.Governor) sim.Options {
		o := sim.Options{Workload: wrap(s.newBase(), &lt), Load: load, Governor: g, Seed: seed}
		if traced {
			o.Hook = &hook
		}
		return o
	}

	var prof cpuProfile
	profiled := func(f func()) {
		if !traced {
			f()
			return
		}
		if prof.err = pprof.StartCPUProfile(&prof.cur); prof.err != nil {
			return
		}
		f()
		pprof.StopCPUProfile()
		prof.done = append(prof.done, bytes.Clone(prof.cur.Bytes()))
		prof.cur.Reset()
	}

	var baseSim, eclSim *sim.Sim
	timed(&ct.newSims, func() { baseSim, err = sim.New(opts(sim.GovernorBaseline)) })
	if err != nil {
		return res, err
	}
	var baseRes, eclRes *sim.Result
	wallTimed(&ct.runWall, func() { timed(&ct.runBase, func() { profiled(func() { baseRes, err = baseSim.Run() }) }) })
	if err = errors.Join(err, prof.err); err != nil {
		return res, err
	}
	commBase := baseSim.Engine().CommMessages()
	baseSim = nil

	eo := opts(sim.GovernorECL)
	if s.productObs {
		eo.Obs = productObserver()
	}
	if traced {
		// The query tracer is the only sink the traced run adds: the
		// decision-log and energy-meter metrics are those of the
		// product observer, so they read 0 where the workload runs
		// without one.
		if eo.Obs == nil {
			eo.Obs = &obs.Observer{}
		}
		eo.Obs.Trace = trace.New(traceEvery)
	}
	timed(&ct.newSims, func() { eclSim, err = sim.New(eo) })
	if err != nil {
		return res, err
	}
	timed(&ct.prewarm, eclSim.Prewarm)
	wallTimed(&ct.runWall, func() { timed(&ct.runECL, func() { profiled(func() { eclRes, err = eclSim.Run() }) }) })
	if err = errors.Join(err, prof.err); err != nil {
		return res, err
	}

	runtime.ReadMemStats(&ms1)
	res.SetupS = ct.capacity + ct.newSims + ct.prewarm
	res.RunS = ct.runBase + ct.runECL
	res.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	res.Print = fingerprint{CapacityQps: capacity, Baseline: printOf(baseRes), ECL: printOf(eclRes)}
	res.Failures = append(res.Failures, res.Print.properties()...)
	if m := eo.Obs.EnergyMeter(); m != nil {
		res.Failures = append(res.Failures, conservation(m, eclSim.Machine())...)
	}
	if !traced {
		return res, nil
	}

	cpu, err := prof.bySelfPackage()
	if err != nil {
		return res, err
	}
	ob := eo.Obs
	bd := ob.Trace.Breakdown()
	avgMs := func(d time.Duration) float64 {
		if bd.Total.Count == 0 {
			return 0
		}
		return float64(d) / float64(bd.Total.Count) / 1e6
	}
	var hops float64
	if bd.Total.Count > 0 {
		hops = float64(bd.Hops) / float64(bd.Total.Count)
	}
	var deep float64
	if now := eclSim.Machine().Now(); now > 0 {
		_, _, d := eclSim.Machine().Residency(0)
		deep = d / now.Seconds()
	}
	entries := 0
	for i := 0; i < eclSim.Controller().Sockets(); i++ {
		entries += eclSim.Controller().Socket(i).Profile().Size()
	}
	var controlPct float64
	if m := ob.EnergyMeter(); m.IntegratedTotalJ() > 0 {
		controlPct = 100 * m.ControlTotalJ().Joules() / m.IntegratedTotalJ().Joules()
	}
	l := map[string]float64{
		"bench.capacity_s":           ct.capacity,
		"bench.capacity_qps":         capacity,
		"sim.new_s":                  ct.newSims,
		"energy.prewarm_s":           ct.prewarm,
		"energy.profile_entries":     float64(entries),
		"sim.run_baseline_s":         ct.runBase,
		"sim.run_ecl_s":              ct.runECL,
		"sim.quanta":                 float64(hook.quanta),
		"sim.samples":                float64(hook.samples),
		"sim.host_ns_per_quantum":    res.RunS * 1e9 / float64(max(hook.quanta, 1)),
		"workload.partition_build_s": float64(probeLT.partitionNs+lt.partitionNs) / 1e9,
		"workload.partitions":        float64(probeLT.partitions + lt.partitions),
		"workload.query_gen_s":       float64(lt.queryNs) / 1e9,
		"workload.queries":           float64(lt.queries),
		"workload.ops":               float64(lt.ops),
		"storage.exec_s":             float64(lt.execNs) / 1e9,
		"storage.exec_ops":           float64(lt.execOps),
		"storage.exec_ns_per_op":     float64(lt.execNs) / float64(max(lt.execOps, 1)),
		"storage.exec_share":         float64(lt.execNs) / 1e9 / ct.runWall,
		"dodb.queue_ms_avg":          avgMs(bd.Total.Phase[2]),
		"dodb.wake_ms_avg":           avgMs(bd.Total.Phase[1]),
		"dodb.exec_ms_avg":           avgMs(bd.Total.Phase[3]),
		"msg.route_ms_avg":           avgMs(bd.Total.Phase[0]),
		"msg.inter_socket_frac":      hops,
		"msg.comm_messages":          float64(commBase + eclSim.Engine().CommMessages()),
		"hw.config_applies":          float64(ob.Log.Count(obs.EvConfigApply)),
		"hw.deep_sleep_frac":         deep,
		"ecl.zone_transitions":       float64(ob.Log.Count(obs.EvZoneTransition)),
		"ecl.rti_cycles":             float64(ob.Log.Count(obs.EvRTICycle)),
		"ecl.control_j_pct":          controlPct,
		"obs.events":                 float64(ob.Log.Total()),
		"go.gc_cycles":               float64(ms1.NumGC - ms0.NumGC),
		"go.gc_cpu_s":                gcCPUSeconds() - gc0,
	}
	for _, m := range moduleCPU {
		l[m+".cpu_s"] = cpu[m]
	}
	res.Layers = l
	return res, nil
}

// gcCPUSeconds reads the process's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// cpuProfile collects the CPU profiles of the traced run's Sim.Run calls.
type cpuProfile struct {
	cur  bytes.Buffer
	done [][]byte
	err  error
}

// bySelfPackage sums the profiles' self CPU seconds per internal module.
func (p *cpuProfile) bySelfPackage() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, raw := range p.done {
		per, err := selfSecondsByPackage(raw)
		if err != nil {
			return nil, err
		}
		for pkg, sec := range per {
			out[moduleOf(pkg)] += sec
		}
	}
	return out, nil
}
