#!/usr/bin/env bash
# check.sh — the tier-1 gate. Builder and CI run exactly this script, so
# a green local run means a green CI run:
#
#   gofmt      formatting (testdata fixtures included)
#   build      everything compiles
#   vet        standard static checks
#   ecllint    the project's determinism, layering, hot-path, float-
#              order, and unit contract (internal/lint; DESIGN.md §8 +
#              §13), with stale-suppression detection
#   tests      the short suite (the full figure sweep takes tens of
#              minutes; heavy regenerators honor -short)
#   perfbench  vet and short tests of the nested benchmark module
#   race       the byte-identical determinism test under the race
#              detector, proving the core is goroutine-free at runtime,
#              plus the parallel-vs-sequential sweep byte-identity test,
#              proving the bench orchestrator's fan-out changes nothing
#              but wall-clock
set -euo pipefail
cd "$(dirname "$0")/.."

# step NAME: print the elapsed seconds of the step before it, then
# announce NAME (an empty NAME only closes the last step). The per-step
# and whole-gate times are the gate's wall-time record.
gate_start=$SECONDS
step_name=""
step_start=$SECONDS
step() {
    if [ -n "$step_name" ]; then
        echo "-- $step_name: $((SECONDS - step_start)) s"
    fi
    step_name="$1"
    step_start=$SECONDS
    if [ -n "$step_name" ]; then
        echo "== $step_name"
    fi
}

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go build"
go build ./...

step "go vet"
go vet ./...

step "ecllint"
# -unused-directives: a suppression that no longer suppresses anything
# is a stale justification and fails the gate too.
go run ./cmd/ecllint -unused-directives ./...

step "ecllint on internal/lint"
# The analyzer package holds itself to its own contract. ./... above
# already covers it; this separate invocation keeps the self-check
# visible even if the tree-wide run ever narrows its patterns.
go run ./cmd/ecllint -unused-directives ./internal/lint ./cmd/ecllint

step "go test -short"
go test -short -count=1 ./...

step "perfbench module vet + short tests"
# perfbench/ is its own module (ecldb/perfbench, replace ecldb => ../),
# so the root ./... patterns above skip it. Its short tests are the
# benchmark harness's self-checks: metric parsing, the fingerprint
# check, the profile decoder, and the workload decorator.
(cd perfbench && go vet ./... && go test -short -count=1 ./...)

step "determinism under -race"
go test -race -short -count=1 -run 'TestDeterminism' ./internal/sim

step "step paths against the reference under -race"
# internal/sim keeps two step paths: production (event loop, kernel
# cache, closed-form stretch integration) and the reference (plain
# quantum walk, full per-step evaluation, per-quantum integration;
# eclsim -nomemo). TestKernelCacheLockstep runs a cached and a reference
# sim side by side and demands identical energy bits, state epochs and
# engine counters after every quantum. TestStepPathsMatchReference runs
# one observed scenario on each path: the event log, metrics
# exposition, explain report, Perfetto export, trace CSV and
# energy-attribution export must match exactly in integers and text and
# within 1e-9 in floats; both runs must conserve energy bitwise and keep
# the audit ledger's baseline at or above the spin floor.
go test -race -count=1 -run 'TestStepPathsMatchReference|TestKernelCacheLockstep' ./internal/sim

step "query trace validity + byte-identity under -race"
# A short traced simulation: the Perfetto export must parse as JSON,
# match byte-for-byte across two same-seed runs, and leave the recorded
# series untouched (tracing is read-only). The determinism digest above
# also folds the export and the phase-breakdown table in.
go test -race -count=1 -run 'TestQueryTrace' ./internal/sim

step "live serving surface under -race"
# cmd/eclserve must build, and the serve package's tests run a short
# simulation with the full HTTP stack attached: the golden Prometheus
# exposition over HTTP, an SSE subscriber asserting at least one typed
# decision event streamed, and the neutrality proof that a served run's
# determinism digest is byte-identical to a headless run (unpaced and
# paced). -race covers the snapshot handoff across the fence.
go build -o /dev/null ./cmd/eclserve
go test -race -count=1 -run 'TestServ' ./internal/serve

step "energy attribution under -race"
# The attribution meter's contract, raced: conservation (the meter's
# mirror is bitwise equal to the machine's RAPL counters and the
# queries/control/residual partition sums back exactly) is asserted
# on both step paths by TestStepPathsMatchReference above; here the meter's own
# tests run — behavior neutrality (digest identical with the meter on
# or off), determinism of its exports, a positive energy-saved signal
# with a coherent audit ledger, and the zero-alloc steady-state accrual
# proofs, and the allocation bound of a metered zero-load race-to-idle
# run — plus the package unit tests.
go test -race -count=1 -run 'TestEnergyAttr|TestIdleECLAllocationBound' ./internal/sim
go test -race -count=1 ./internal/obs/energyattr

step "digest re-lock semantic check"
# The closed-form stretch integration (DESIGN.md §16) changes the
# grouping of float sums, so energies are not byte-identical to the
# per-quantum reference. The re-lock harness's fast mode regenerates a
# figure subset on both step paths (eclsim -nomemo and the default)
# and proves that every integer observable is byte-identical and every
# float agrees within epsilon.
relock_out=$(mktemp -d)
./scripts/relock.sh --check "$relock_out"
rm -rf "$relock_out"

step "parallel sweep byte-identity under -race"
# Not -short: the comparison regenerates a sized-down figure three times
# (sequential, 2 workers, 4 workers) and diffs tables, JSONL event
# streams, and metrics expositions byte for byte.
go test -race -count=1 -run 'TestParallelSweepByteIdentical' ./internal/bench

step ""
echo "check.sh: all green in $((SECONDS - gate_start)) s"
