#!/usr/bin/env bash
# Regenerate every figure dataset: each command of the command table in
# src/bornsim/cli.py, run with its reference parameters, which are the table's
# defaults (see bornsim <command> --help).
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

commands=$(python3 -c "from bornsim.cli import COMMANDS; print(*COMMANDS)")
for command in $commands; do
    if [[ "$command" == fidelity-contour ]]; then
        run "$command" $FAST_FLAG
    else
        run "$command"
    fi
done

echo "Data written to $OUT/. Render plots with e.g.:"
echo "  gnuplot -e \"datafile='$OUT/counts-$SEED.csv'\" scripts/plots/counts.gp"
