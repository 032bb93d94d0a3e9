#!/usr/bin/env bash
# relock.sh — the digest re-lock harness (DESIGN.md §16).
#
# The closed-form stretch integration changes the *grouping* of float
# sums (P·(n·q) instead of n per-quantum adds), so float-carrying
# artifacts are not byte-identical to the per-quantum reference even
# though every value agrees to ~1e-12 relative. This script proves that
# claim mechanically: it regenerates the figure and table artifacts
# twice — once on the reference step path (eclsim -nomemo: plain
# quantum walk, per-quantum integration) and once on the production
# default — and runs cmd/semdiff over the two trees,
# which asserts that all non-numeric text and every integer-rendered
# observable (query counts, latencies, timestamps, event types, applied
# configurations) match byte for byte while float-rendered values agree
# within the epsilon. The digest table it prints is the errata source
# for EXPERIMENTS.md.
#
# Usage:
#   scripts/relock.sh [--check] [outdir]
#
#   --check   fast subset (short figure lengths) for scripts/check.sh
#             and CI; the full mode regenerates the real figures and
#             takes tens of minutes (Table 1 dominates).
#
# Environment:
#   RELOCK_FIG_LEN     override the -fig 13/14/15 length (full mode)
#   RELOCK_TABLE1_LEN  override the Table 1 per-cell length (full mode)
#   SEMDIFF_EPS        relative epsilon for float agreement (default 1e-9)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [ "${1:-}" = "--check" ]; then
    MODE=check
    shift
fi
OUT="${1:-relock-out}"
EPS="${SEMDIFF_EPS:-1e-9}"

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/eclsim" ./cmd/eclsim
go build -o "$BIN/semdiff" ./cmd/semdiff

# generate <dir> <nomemo-flag or "">: regenerate the artifact set into
# dir. Runs from inside dir so file names embedded in the rendered
# output (trace written to ...) are identical across the two trees.
generate() {
    local dir="$1" flag="${2:-}"
    rm -rf "$dir"
    mkdir -p "$dir"
    (
        cd "$dir"
        if [ "$MODE" = check ]; then
            "$BIN/eclsim" $flag -fig 11 > fig11.txt
            "$BIN/eclsim" $flag -fig 13 -len 20s \
                -events fig13-events.jsonl -metrics fig13-metrics.prom \
                -qtrace fig13-qtrace.json -qtrace-sample 64 -explain > fig13.txt
            "$BIN/eclsim" $flag -workload kv-indexed -load idleburst \
                -level 0.5 -duration 30s -seed 7 -csv idleburst \
                -events idleburst-events.jsonl \
                -metrics idleburst-metrics.prom > idleburst.txt
        else
            local figlen=() t1len=()
            [ -n "${RELOCK_FIG_LEN:-}" ] && figlen=(-len "$RELOCK_FIG_LEN")
            [ -n "${RELOCK_TABLE1_LEN:-}" ] && t1len=(-len "$RELOCK_TABLE1_LEN")
            "$BIN/eclsim" $flag -fig 11 > fig11.txt
            "$BIN/eclsim" $flag -fig 13 "${figlen[@]+"${figlen[@]}"}" \
                -events fig13-events.jsonl -metrics fig13-metrics.prom \
                -qtrace fig13-qtrace.json -qtrace-sample 64 -explain > fig13.txt
            "$BIN/eclsim" $flag -fig 14 "${figlen[@]+"${figlen[@]}"}" \
                -events fig14-events.jsonl \
                -metrics fig14-metrics.prom > fig14.txt
            "$BIN/eclsim" $flag -fig 15 "${figlen[@]+"${figlen[@]}"}" > fig15.txt
            "$BIN/eclsim" $flag -workload kv-indexed -load idleburst \
                -level 0.5 -duration 60s -seed 7 -csv idleburst \
                -events idleburst-events.jsonl \
                -metrics idleburst-metrics.prom > idleburst.txt
            "$BIN/eclsim" $flag -table 1 "${t1len[@]+"${t1len[@]}"}" > table1.txt
        fi
    )
}

echo "== relock ($MODE): regenerating on the reference step path (-nomemo)"
generate "$OUT/old" -nomemo
echo "== relock ($MODE): regenerating on the production step path"
generate "$OUT/new"

echo "== relock ($MODE): semantic diff (eps $EPS)"
if "$BIN/semdiff" -eps "$EPS" "$OUT/old" "$OUT/new" | tee "$OUT/digests.txt"; then
    echo "relock: OK — integer observables byte-identical, floats within $EPS"
else
    echo "relock: MISMATCH — see $OUT/digests.txt" >&2
    exit 1
fi
