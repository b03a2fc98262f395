#!/usr/bin/env bash
# Regenerate every figure dataset with the reference parameters, which are the
# defaults of the command table in src/bornsim/cli.py (see bornsim <command> --help).
# Usage: scripts/reproduce_all.sh [OUT_DIR] [SEED]
#   FAST=1 scripts/reproduce_all.sh     # 20-state contour instead of 100
set -euo pipefail

OUT="${1:-out}"
SEED="${2:-42}"
FAST_FLAG=""
if [[ "${FAST:-0}" == "1" ]]; then
    FAST_FLAG="--fast"
fi

run() {
    echo "== bornsim $*"
    python3 -m bornsim.cli "$@" --out-dir "$OUT" --seed "$SEED"
}

run counts
run deviation
run visibility
run born-again
run antibunch
run hyper
run mz
run fidelity
run fidelity-mle
run witness
run visibility-contour
run fidelity-contour $FAST_FLAG

echo "Data written to $OUT/. Render plots with e.g.:"
echo "  gnuplot -e \"datafile='$OUT/counts-$SEED.csv'\" scripts/plots/counts.gp"
