package main

import (
	"math/rand"
	"time"

	"ecldb/internal/perfmodel"
	"ecldb/internal/workload"
)

// layerTimes accumulates host time and work counts of the workload and
// storage layers, measured by the traced run's workload decorator around
// each call it forwards.
type layerTimes struct {
	partitionNs, partitions int64
	queryNs, queries, ops   int64
	execNs, execOps         int64
}

// timedWorkload forwards every Workload method to inner and times the
// calls that do work: partition construction, query generation and the
// sampled execution of each op. Name is forwarded unchanged, so the
// capacity memo key and everything keyed on the name stay the same.
type timedWorkload struct {
	inner workload.Workload
	t     *layerTimes
}

func (w *timedWorkload) Name() string  { return w.inner.Name() }
func (w *timedWorkload) Indexed() bool { return w.inner.Indexed() }
func (w *timedWorkload) Characteristics() perfmodel.Characteristics {
	return w.inner.Characteristics()
}

func (w *timedWorkload) NewPartition(p int, rng *rand.Rand) workload.PartitionState {
	start := time.Now()
	st := w.inner.NewPartition(p, rng)
	w.t.partitionNs += int64(time.Since(start))
	w.t.partitions++
	return st
}

func (w *timedWorkload) NewQuery(rng *rand.Rand, parts int) []workload.Op {
	start := time.Now()
	ops := w.inner.NewQuery(rng, parts)
	w.t.queryNs += int64(time.Since(start))
	w.timeExec(ops)
	return ops
}

// timeExec counts a generated query and rewrites each op's sampled work
// into a closure that times it. The engine runs Exec and ExecFn the same
// way (once, when the op is dequeued), so the rewrite changes host cost
// only, never the simulated run.
func (w *timedWorkload) timeExec(ops []workload.Op) {
	w.t.queries++
	w.t.ops += int64(len(ops))
	t := w.t
	for i := range ops {
		op := &ops[i]
		switch {
		case op.ExecFn != nil:
			fn, ctx := op.ExecFn, op.ExecCtx
			op.ExecFn, op.ExecCtx = nil, 0
			op.Exec = func(st workload.PartitionState) {
				start := time.Now()
				fn(st, ctx)
				t.execNs += int64(time.Since(start))
				t.execOps++
			}
		case op.Exec != nil:
			fn := op.Exec
			op.Exec = func(st workload.PartitionState) {
				start := time.Now()
				fn(st)
				t.execNs += int64(time.Since(start))
				t.execOps++
			}
		}
	}
}

// The optional workload interfaces dodb.Engine type-asserts. The
// decorator must implement exactly those its inner workload implements:
// one it adds or drops changes how the engine drives the workload.

type batchQuerier struct {
	w     *timedWorkload
	inner workload.BatchQuerier
}

func (b batchQuerier) AppendQuery(dst []workload.Op, rng *rand.Rand, parts int) []workload.Op {
	n := len(dst)
	start := time.Now()
	dst = b.inner.AppendQuery(dst, rng, parts)
	b.w.t.queryNs += int64(time.Since(start))
	b.w.timeExec(dst[n:])
	return dst
}

type perSocket struct{ inner workload.PerSocketWorkload }

func (p perSocket) SocketCharacteristics(socket int) perfmodel.Characteristics {
	return p.inner.SocketCharacteristics(socket)
}

type versioned struct{ inner workload.Versioned }

func (v versioned) CharacteristicsVersion() uint64 { return v.inner.CharacteristicsVersion() }

// decorate wraps inner in a timedWorkload that forwards exactly the
// optional interfaces inner implements.
func decorate(inner workload.Workload, t *layerTimes) workload.Workload {
	w := &timedWorkload{inner: inner, t: t}
	bi, isB := inner.(workload.BatchQuerier)
	si, isS := inner.(workload.PerSocketWorkload)
	vi, isV := inner.(workload.Versioned)
	b, s, v := batchQuerier{w, bi}, perSocket{si}, versioned{vi}
	switch {
	case isB && isS && isV:
		return struct {
			*timedWorkload
			batchQuerier
			perSocket
			versioned
		}{w, b, s, v}
	case isB && isS:
		return struct {
			*timedWorkload
			batchQuerier
			perSocket
		}{w, b, s}
	case isB && isV:
		return struct {
			*timedWorkload
			batchQuerier
			versioned
		}{w, b, v}
	case isS && isV:
		return struct {
			*timedWorkload
			perSocket
			versioned
		}{w, s, v}
	case isB:
		return struct {
			*timedWorkload
			batchQuerier
		}{w, b}
	case isS:
		return struct {
			*timedWorkload
			perSocket
		}{w, s}
	case isV:
		return struct {
			*timedWorkload
			versioned
		}{w, v}
	}
	return w
}

// quantumCounter is the traced run's sim.StepHook: it counts the quanta
// and trace samples the run loop advances through.
type quantumCounter struct{ quanta, samples int64 }

func (h *quantumCounter) OnQuantum(time.Duration) { h.quanta++ }
func (h *quantumCounter) OnSample(time.Duration)  { h.samples++ }
func (h *quantumCounter) OnDone(time.Duration)    {}
