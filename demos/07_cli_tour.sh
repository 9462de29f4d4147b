#!/bin/sh
# Tour of the command line.  Run from the repository root:
#   sh demos/07_cli_tour.sh
#
# Exit codes: 0 certified/completed, 2 refuted (the sufficient condition
# fails at an exact point; for probe, an exact destabilizer), 3 inconclusive,
# 1 input error -- so several commands below "fail" on purpose and the
# script keeps going.

set -u
cd "$(dirname "$0")/.."
run() { echo; echo "\$ wkstab $*"; python3 -m wkstab.cli "$@"; echo "[exit $?]"; }

# Describe an input (polytope geometry, weights, monotone point).
run info demos/data/rank_one.json --text

# The extremal affine function and the Futaki character.
run lext demos/data/rank_one.json --text
run futaki demos/data/rank_one.json --text

# Certify an instance (exit 0)...
run check-fano demos/data/rank_one.json --text

# ... and refute one (exit 2, with the witness vertex in the report).
run check-fano demos/data/rank_one_refuted.json --text

# The same data under the legacy sign convention, clearly labelled.
run check-fano demos/data/rank_one.json --legacy-sign --text

# The general per-cone check with a chosen base point.
run check demos/data/rank_one.json --x0 "1/3" --text

# Anticanonical total-space bound: sup l_ext <= 2(dim Y + 1).
run check-fano-total demos/data/anticanonical_product.json --text

# Class threshold: certified bracket for the smallest admissible c.
run threshold demos/data/threshold_template.json --lo 4 --hi 9 --text

# Destabilizer probe (exit 2 on the refuted instance).
run probe demos/data/rank_one_refuted.json --resolution 3 --text

# Parameter sweep from a template; mixed verdicts exit 2.
run sweep demos/data/fano_grid_sweep.json --text

# JSON is the default output and is byte-deterministic; --out writes a file.
run check-fano demos/data/rank_one.json --out /tmp/wkstab_report.json
echo; echo "wrote /tmp/wkstab_report.json:"; head -n 5 /tmp/wkstab_report.json
