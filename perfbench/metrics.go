package main

import "slices"

// metric names one reported number. The end-to-end and per-layer tables
// below are the benchmark's vocabulary: BENCHMARK.json lists the same
// names and units (metrics_test.go keeps the two in step), and every run
// emits exactly the metrics of one table.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Moves names, for a per-layer metric, the end-to-end metric it
	// should move and on which workloads (tw = kv-twitter, ssb =
	// ssb-fanout, idle = kv-idle).
	Moves string
}

// endToEnd is what a user of the simulator sees: the host cost of one
// Table 1 style cell (a baseline run plus an ECL run) and the simulated
// outcome of the ECL run. setup_s and run_s are host CPU seconds of the
// benchmark process (cpuSeconds), so a run does not count the time it
// waited for a CPU, scaled to the reference host's speed by the
// calibration loop around each cell (hostspeed.go); the traced run
// reports the raw CPU seconds per phase and the loop's score
// (host.calib_s). peak_rss_mb is the high-water resident memory of the
// whole run, warm-up cell and calibration table included. The
// simulated metrics are deterministic; they
// are here so that a speed-up that changes what the controller does
// cannot pass as a pure performance change.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "run_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ecl_saving_pct", Unit: "%", Better: "higher"},
	{Name: "ecl_violation_pct", Unit: "%", Better: "lower"},
	{Name: "ecl_completed_pct", Unit: "%", Better: "higher"},
}

// moduleCPU lists the internal modules whose self CPU seconds the traced
// run reports, from a CPU profile grouped by package.
var moduleCPU = []string{"storage", "workload", "dodb", "msg", "hw", "ecl", "energy", "sim", "vtime", "perfmodel", "obs"}

// perLayer is measured by the traced run, from outside each layer: by
// timing the benchmark's own calls into the layers' public functions and
// the seams sim.Options accepts (Workload, Hook, Obs).
var perLayer = slices.Concat([]metric{
	{Name: "bench.capacity_s", Unit: "s", Better: "lower", Moves: "setup_s on tw and idle"},
	{Name: "bench.capacity_qps", Unit: "1/s", Better: "higher", Moves: "nothing (simulated; fixes the tw and idle load)"},
	{Name: "sim.new_s", Unit: "s", Better: "lower", Moves: "setup_s on all, most on ssb"},
	{Name: "energy.prewarm_s", Unit: "s", Better: "lower", Moves: "setup_s on all (small)"},
	{Name: "energy.profile_entries", Unit: "count", Better: "lower", Moves: "setup_s on all"},
	{Name: "sim.run_baseline_s", Unit: "s", Better: "lower", Moves: "run_s"},
	{Name: "sim.run_ecl_s", Unit: "s", Better: "lower", Moves: "run_s"},
	{Name: "sim.quanta", Unit: "count", Better: "lower", Moves: "run_s on idle"},
	{Name: "sim.samples", Unit: "count", Better: "lower", Moves: "run_s on idle"},
	{Name: "sim.host_ns_per_quantum", Unit: "ns", Better: "lower", Moves: "run_s on idle"},
	{Name: "workload.partition_build_s", Unit: "s", Better: "lower", Moves: "setup_s on ssb and tw"},
	{Name: "workload.partitions", Unit: "count", Better: "lower", Moves: "setup_s on ssb and tw"},
	{Name: "workload.query_gen_s", Unit: "s", Better: "lower", Moves: "run_s and alloc_mb on ssb"},
	{Name: "workload.queries", Unit: "count", Better: "higher", Moves: "run_s and alloc_mb on ssb"},
	{Name: "workload.ops", Unit: "count", Better: "higher", Moves: "run_s and alloc_mb on ssb"},
	{Name: "storage.exec_s", Unit: "s", Better: "lower", Moves: "run_s on ssb and tw; about 0 on idle"},
	{Name: "storage.exec_ops", Unit: "count", Better: "higher", Moves: "run_s on ssb and tw"},
	{Name: "storage.exec_ns_per_op", Unit: "ns", Better: "lower", Moves: "run_s on ssb and tw"},
	{Name: "storage.exec_share", Unit: "ratio", Better: "lower", Moves: "run_s on ssb and tw"},
	{Name: "dodb.queue_ms_avg", Unit: "ms", Better: "lower", Moves: "ecl_violation_pct (simulated; must not move in performance changes)"},
	{Name: "dodb.wake_ms_avg", Unit: "ms", Better: "lower", Moves: "ecl_violation_pct (simulated)"},
	{Name: "dodb.exec_ms_avg", Unit: "ms", Better: "lower", Moves: "ecl_violation_pct (simulated)"},
	{Name: "msg.route_ms_avg", Unit: "ms", Better: "lower", Moves: "ecl_violation_pct (simulated)"},
	{Name: "msg.inter_socket_frac", Unit: "ratio", Better: "lower", Moves: "run_s on ssb; ecl_violation_pct"},
	{Name: "msg.comm_messages", Unit: "count", Better: "lower", Moves: "run_s on ssb"},
	{Name: "hw.config_applies", Unit: "count", Better: "lower", Moves: "run_s and ecl_saving_pct on idle"},
	{Name: "hw.deep_sleep_frac", Unit: "ratio", Better: "higher", Moves: "run_s and ecl_saving_pct on idle"},
	{Name: "ecl.zone_transitions", Unit: "count", Better: "lower", Moves: "ecl_saving_pct on idle"},
	{Name: "ecl.rti_cycles", Unit: "count", Better: "lower", Moves: "ecl_saving_pct on idle"},
	{Name: "ecl.control_j_pct", Unit: "%", Better: "lower", Moves: "ecl_saving_pct on idle"},
	{Name: "obs.events", Unit: "count", Better: "lower", Moves: "run_s on idle only"},
}, cpuMetrics(), []metric{
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: "run_s and peak_rss_mb on ssb"},
	{Name: "go.gc_cpu_s", Unit: "s", Better: "lower", Moves: "run_s and peak_rss_mb on ssb"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "nothing; the cost of the traced run itself"},
	{Name: "host.calib_s", Unit: "s", Better: "lower", Moves: "nothing; the host's speed, which setup_s and run_s are scaled by"},
	{Name: "hw.step_ns", Unit: "ns", Better: "lower", Moves: "run_s on tw and ssb"},
	{Name: "hw.step_stretch_ns", Unit: "ns", Better: "lower", Moves: "run_s on idle"},
	{Name: "msg.send_deliver_ns", Unit: "ns", Better: "lower", Moves: "run_s on ssb and tw"},
	{Name: "dodb.latency_record_ns", Unit: "ns", Better: "lower", Moves: "run_s on tw"},
	{Name: "ecl.tick_ns", Unit: "ns", Better: "lower", Moves: "run_s on idle"},
})

func cpuMetrics() []metric {
	out := make([]metric, len(moduleCPU))
	for i, m := range moduleCPU {
		moves := "run_s on tw and ssb"
		switch m {
		case "hw", "sim", "vtime", "perfmodel", "ecl":
			moves = "run_s on idle"
		case "obs":
			moves = "run_s on idle only"
		}
		out[i] = metric{Name: m + ".cpu_s", Unit: "s", Better: "lower", Moves: moves}
	}
	return out
}
