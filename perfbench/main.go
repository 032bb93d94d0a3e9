// Command perfbench is the repository benchmark: the host cost of
// simulating a Table 1 style cell (a baseline run plus an ECL run with
// prewarm) and the simulated energy/latency outcome of the ECL run, side
// by side, on three workloads that stress different layers.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kv-twitter --seed 1 --seconds 30 --trace 0
//
// The cells of a run execute one after another in one process, on the
// calling goroutine: a warm-up cell first, then timed cells; each cell's
// capacity probe is cold. The run reports medians over the timed cells.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run (see metrics.go). The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// The simulated cells run at --workload-seed (default 21, the paper
// figures' seed), whose outcome reference.json records, so every cell is
// checked against an exact reference; --seed seeds the inputs of the
// layer micro-benchmarks (layers.go).
//
// Other subcommands:
//
//	perfbench record --workload W [--workload-seed S]  print W's fingerprint for reference.json
//	perfbench compare OLD NEW                          compare two saved outputs of one host
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	// The simulation runs on the calling goroutine. With one P the
	// garbage collector works on the same thread, so a cell's host time
	// is that of one CPU and does not depend on how busy the others are.
	runtime.GOMAXPROCS(1)
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runCmd(args)
	case "record":
		err = recordCmd(args)
	case "compare":
		err = compareCmd(args)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type runFlags struct {
	workload     string
	seed         int64
	workloadSeed int64
	seconds      float64
	trace        int
}

func parseRun(name string, args []string) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload: kv-twitter, ssb-fanout or kv-idle")
	fs.Int64Var(&f.seed, "seed", 1, "seed of the layer micro-benchmarks' inputs")
	fs.Int64Var(&f.workloadSeed, "workload-seed", 21, "simulation seed of the cells")
	fs.Float64Var(&f.seconds, "seconds", 30, "host seconds to measure for")
	fs.IntVar(&f.trace, "trace", 0, "1 for the traced run and its per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if _, err := specByName(f.workload); err != nil {
		return f, err
	}
	if f.trace != 0 && f.trace != 1 {
		return f, fmt.Errorf("-trace must be 0 or 1, got %d", f.trace)
	}
	return f, nil
}

func recordCmd(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("workload-seed", 21, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := specByName(*name)
	if err != nil {
		return err
	}
	res, err := runCell(s, *seed, false)
	if err != nil {
		return err
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("refusing to record a cell that fails its checks: %s", strings.Join(res.Failures, "; "))
	}
	out, err := json.MarshalIndent(map[string]map[string]fingerprint{s.name: {fmt.Sprint(*seed): res.Print}}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// peakRSSMB reads the high-water resident memory of this process in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runCmd is the benchmark. It runs the cells of one workload in this
// process, one after another: a warm-up cell, checked but not timed,
// then timed cells until --seconds of host time are used (at least
// minCells untraced cells, and with --trace 1 at least one traced cell),
// and reports medians over the timed cells. A calibration score is taken
// before the first cell and after every cell (hostspeed.go), and each
// cell's host times are scaled by the scores around it.
func runCmd(args []string) error {
	f, err := parseRun("run", args)
	if err != nil {
		return err
	}
	s, err := specByName(f.workload)
	if err != nil {
		return err
	}
	const minCells = 3
	start := time.Now()
	var (
		attempted, failed int
		plain, traced     []cellResult
		ref               *fingerprint
		calibs            []float64
	)
	// calib takes a calibration score on a collected heap, so one cell's
	// garbage is neither the loop's nor the next cell's GC work.
	calib := func() float64 {
		runtime.GC()
		c := calibrate()
		calibs = append(calibs, c)
		runtime.GC()
		return c
	}
	before := calib()
	// cell runs one cell and checks it; it reports whether the cell
	// passed every check.
	cell := func(tr bool) (cellResult, bool) {
		attempted++
		res, err := runCell(s, f.workloadSeed, tr)
		after := calib()
		res.Scale, before = speedScale(before, after), after
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return res, false
		}
		res.Failures = append(res.Failures, checkReference(s.name, f.workloadSeed, res.Print)...)
		if ref == nil {
			ref = &res.Print
		} else if d := ref.diff(res.Print); len(d) > 0 {
			res.Failures = append(res.Failures, "fingerprint differs from the first cell of this run: "+strings.Join(d, "; "))
		}
		fmt.Fprintf(os.Stderr, "perfbench: cell %d traced=%v scale=%.4f setup_s=%.4f run_s=%.4f (cpu %.4f, %.4f) alloc_mb=%.1f\n",
			attempted, tr, res.Scale, res.Scale*res.SetupS, res.Scale*res.RunS, res.SetupS, res.RunS, res.AllocMB)
		for _, msg := range res.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: check failed (traced=%v): %s\n", tr, msg)
		}
		if len(res.Failures) > 0 {
			failed++
			return res, false
		}
		return res, true
	}
	// The layer micro-benchmarks run first, so the cells use what is
	// left of the budget.
	var lb map[string]float64
	if f.trace == 1 {
		attempted++
		var lerr error
		if lb, lerr = runLayerBenches(f.seed); lerr != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: layer micro-benchmarks:", lerr)
		}
	}
	// The warm-up cell grows the heap and faults in its pages, so the
	// timed cells measure the simulator and not the first touch of
	// memory.
	cell(false)
	budget := time.Duration(f.seconds * float64(time.Second))
	cellStart := time.Now()
	for i := 0; ; i++ {
		if i >= minCells {
			if len(plain) == 0 {
				break // every cell failed so far
			}
			perCell := time.Since(cellStart) / time.Duration(i)
			done := f.trace == 0 || len(traced) > 0 || i >= 2*minCells
			if done && time.Since(start)+perCell > budget {
				break
			}
		}
		tr := f.trace == 1 && i%2 == 1
		if res, ok := cell(tr); ok && tr {
			traced = append(traced, res)
		} else if ok {
			plain = append(plain, res)
		}
	}
	if len(plain) == 0 || (f.trace == 1 && len(traced) == 0) {
		return fmt.Errorf("%d of %d cells failed", failed, attempted)
	}

	metrics := make(map[string]value)
	put := func(defs []metric, vals map[string]float64) error {
		for _, m := range defs {
			v, ok := vals[m.Name]
			if !ok {
				return fmt.Errorf("metric %s not measured", m.Name)
			}
			metrics[m.Name] = value{v, m.Unit}
		}
		return nil
	}
	col := func(cells []cellResult, get func(cellResult) float64) []float64 {
		out := make([]float64, len(cells))
		for i, c := range cells {
			out[i] = get(c)
		}
		return out
	}
	runPlain := median(col(plain, func(c cellResult) float64 { return c.Scale * c.RunS }))
	if f.trace == 0 {
		p := plain[0]
		rss, rerr := peakRSSMB()
		if rerr != nil {
			return rerr
		}
		err = put(endToEnd, map[string]float64{
			"setup_s":           median(col(plain, func(c cellResult) float64 { return c.Scale * c.SetupS })),
			"run_s":             runPlain,
			"alloc_mb":          median(col(plain, func(c cellResult) float64 { return c.AllocMB })),
			"peak_rss_mb":       rss,
			"ecl_saving_pct":    p.savingPct(),
			"ecl_violation_pct": p.violationPct(),
			"ecl_completed_pct": p.completedPct(),
		})
	} else {
		vals := make(map[string]float64)
		for name := range traced[0].Layers {
			vals[name] = median(col(traced, func(c cellResult) float64 { return c.Layers[name] }))
		}
		runTraced := median(col(traced, func(c cellResult) float64 { return c.Scale * c.RunS }))
		vals["host.calib_s"] = median(calibs)
		vals["trace.overhead_pct"] = 100 * (runTraced/runPlain - 1)
		for k, v := range lb {
			vals[k] = v
		}
		err = put(perLayer, vals)
	}
	if err != nil {
		return err
	}

	h := currentHost(".")
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "host %s\n", hj)
	fmt.Fprintf(w, "workload %s workload-seed %d seed %d trace %d cells %d traced %d\n",
		f.workload, f.workloadSeed, f.seed, f.trace, len(plain), len(traced))
	defs := endToEnd
	if f.trace == 1 {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "%s %.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	out, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return w.Flush()
}

// saved is one saved benchmark output: its host line and final result.
type saved struct {
	host   host
	result result
}

func readSaved(path string) (saved, error) {
	var s saved
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	hostFound := false
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "host "); ok {
			if err := json.Unmarshal([]byte(rest), &s.host); err != nil {
				return s, fmt.Errorf("%s: host line: %w", path, err)
			}
			hostFound = true
		}
	}
	if !hostFound {
		return s, fmt.Errorf("%s: no host line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.result); err != nil {
		return s, fmt.Errorf("%s: result line: %w", path, err)
	}
	return s, nil
}

// compareCmd prints each metric of two saved outputs side by side. It
// refuses outputs measured on different hosts.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD NEW")
	}
	a, err := readSaved(args[0])
	if err != nil {
		return err
	}
	b, err := readSaved(args[1])
	if err != nil {
		return err
	}
	if !a.host.sameMachine(b.host) {
		return fmt.Errorf("results come from different hosts: %+v vs %+v", a.host, b.host)
	}
	names := make([]string, 0, len(a.result.Metrics))
	for n := range a.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("old: %s\nnew: %s\n%-28s %14s %14s %9s\n", a.host.Commit, b.host.Commit, "metric", "old", "new", "change")
	for _, n := range names {
		old, nu := a.result.Metrics[n], b.result.Metrics[n]
		change := "n/a"
		if old.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nu.Value/old.Value-1))
		}
		fmt.Printf("%-28s %14.6g %14.6g %9s %s\n", n, old.Value, nu.Value, change, old.Unit)
	}
	return nil
}
