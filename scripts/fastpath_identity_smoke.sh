#!/usr/bin/env bash
# Fast-path byte-identity smoke: the paper-scale fig5 artifacts must be
# byte-for-byte identical between
#   1. the default fast path (batched drain, steady-quantum memo,
#      precompiled monitor sampling),
#   2. the per-event reference path (REPRO_SIM_SLOWPATH=1),
#   3. a parallel run on the warm pool (--jobs 4).
# fig5 runs single-PM cells only, so the reduced-scale fig10 (two-PM
# RUBiS trials through the cluster router) is also diffed fast vs slow.
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

echo "== parallel (--jobs 4) =="
python -m repro run fig5 --jobs 4 --out "$PAR" \
    > "$WORK/parallel.log" 2>&1

echo "== fig10 --fast, fast and slow path =="
python -m repro run fig10 --fast --out "$WORK/fig10-fast" \
    > "$WORK/fig10-fast.log" 2>&1
REPRO_SIM_SLOWPATH=1 python -m repro run fig10 --fast \
    --out "$WORK/fig10-slow" > "$WORK/fig10-slow.log" 2>&1

echo "== diff =="
diff -r "$FAST" "$SLOW"
diff -r "$FAST" "$PAR"
diff -r "$WORK/fig10-fast" "$WORK/fig10-slow"
echo "fig5: fast == slow == parallel; fig10: fast == slow: byte-identical"
