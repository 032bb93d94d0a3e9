package main

import "math"

// The host's speed for this kind of program is not constant: on a
// shared machine, neighbours contending for caches and memory slow the
// same cell by up to about 2.5x for minutes at a time, longer than a
// run's budget. The benchmark therefore times a fixed calibration loop
// of its own between cells, and scales each cell's host times by
// refCalibS over the loop's time around that cell. The loop is
// benchmark code, so a change to the simulator moves the scaled times
// as much as the raw ones; a change of host speed moves the loop too,
// and largely cancels. Not wholly: in a slow phase the simulator slows
// more than the loop, most in set-up (the capacity probe), so scaled
// times still read somewhat higher there.
//
// The loop mixes the two things the simulator spends its time on: Go
// allocation and garbage collection over pointer-linked objects (a
// binary-tree build and walk), and dependent random reads and writes
// over a table larger than the last-level cache. Its score is the
// geometric mean of the two parts' CPU seconds.

// refCalibS is the calibration loop's score on the reference host (a
// 2-vCPU "Intel(R) Xeon(R) Processor" VM at a quiet moment); scaled
// times are CPU seconds at that speed.
const refCalibS = 0.07

// calibTable is the random-access part's working set, 64 MB.
var calibTable = make([]uint64, 8<<20)

// calibSink keeps the loop's results live.
var calibSink uint64

type calibNode struct{ l, r *calibNode }

func buildTree(depth int) *calibNode {
	if depth == 0 {
		return &calibNode{}
	}
	return &calibNode{buildTree(depth - 1), buildTree(depth - 1)}
}

func (n *calibNode) size() uint64 {
	if n.l == nil {
		return 1
	}
	return 1 + n.l.size() + n.r.size()
}

// treePart builds one long-lived tree and a dozen short-lived ones and
// walks them.
func treePart() {
	long := buildTree(18)
	for i := 0; i < 12; i++ {
		calibSink += buildTree(16).size()
	}
	calibSink += long.size()
}

// tablePart makes a million dependent read-modify-writes at
// pseudo-random slots of calibTable.
func tablePart() {
	mask := uint64(len(calibTable) - 1)
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & mask
		acc += calibTable[j]
		calibTable[j] = acc + x
	}
	calibSink += acc
}

// calibrate runs the loop once and returns its score in CPU seconds.
func calibrate() float64 {
	t0 := cpuSeconds()
	treePart()
	t1 := cpuSeconds()
	tablePart()
	t2 := cpuSeconds()
	return math.Sqrt((t1 - t0) * (t2 - t1))
}

// speedScale is the factor that converts host times measured between
// two calibration scores to reference-host seconds.
func speedScale(before, after float64) float64 {
	return refCalibS / math.Sqrt(before*after)
}
