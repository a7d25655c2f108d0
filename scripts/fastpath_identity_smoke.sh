#!/usr/bin/env bash
# Fast-path byte-identity smoke: the paper-scale fig5 artifacts must be
# byte-for-byte identical between
#   1. the default fast path (batched drain, steady-quantum memo,
#      precompiled monitor sampling),
#   2. the per-event reference path (REPRO_SIM_SLOWPATH=1),
#   3. a parallel chunked run (--jobs 4 --chunk 2).
#
# Usage: bash scripts/fastpath_identity_smoke.sh   (from the repo root)
set -euo pipefail

export PYTHONPATH=src
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FAST="$WORK/fast"
SLOW="$WORK/slow"
PAR="$WORK/parallel"

echo "== fast path (default) =="
python -m repro run fig5 --out "$FAST" > "$WORK/fast.log" 2>&1

echo "== slow path (REPRO_SIM_SLOWPATH=1) =="
REPRO_SIM_SLOWPATH=1 python -m repro run fig5 --out "$SLOW" \
    > "$WORK/slow.log" 2>&1

echo "== parallel chunked (--jobs 4 --chunk 2) =="
python -m repro run fig5 --jobs 4 --chunk 2 --out "$PAR" \
    > "$WORK/parallel.log" 2>&1

echo "== diff =="
diff -r "$FAST" "$SLOW"
diff -r "$FAST" "$PAR"
echo "fast == slow == parallel: byte-identical"
