#!/usr/bin/env bash
# Write the eight reference CLI outputs of this checkout into OUTDIR.
#
# Usage: tools/cli_reference.sh OUTDIR
#
# Runs the package from this checkout's src/ (not an installed copy), one
# file per command plus stdout.txt with each command's summary line.  Every
# output is deterministic, so two checkouts compare with `diff -r`.  Exits
# nonzero as soon as a command does.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
: > stdout.txt

run() {
    python3 -m odefilter.cli "$@" | tee -a stdout.txt
}

run solve --problem logistic --eps 1e-6 --out solve_logistic.csv
run solve --problem vdp --eps 1e-4 --fixed-step 0.02 --global-sigma --format json --out solve_vdp_global.json
run solve --problem brusselator --eps 1e-3 --obs sampled --seed 3 --samples 2 --out solve_brusselator_sampled.csv
run solve --problem logistic --q 4 --init rk --eps 1e-4 --out solve_logistic_q4_rk.csv
run bench --problems logistic,brusselator,vdp --eps 1e-3,1e-6 --out bench.csv
run stability --q 2 --out stability_q2.csv
run converge --problem logistic --q 2 --h-list 0.1,0.05,0.025,0.0125 --out converge_logistic_q2.csv
run calibrate --problem logistic --eps 1e-6 --out calibrate_logistic.csv
