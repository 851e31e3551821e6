#!/bin/sh
# Print `explain -q <id>` for every bundled statement at SF 0.01 and SF
# 0.002 (8 nodes) with the given --jobs. Run from the repository root:
#
#   sh test/golden/plans.sh 1 > test/golden/plans.txt
#
# The committed plans.txt is this output at --jobs 1; the plans must not
# depend on --jobs, so the output at any other value must equal it too.
set -e
jobs=${1:-1}
dune build bin/opdw_cli.exe
cli=./_build/default/bin/opdw_cli.exe
for sf in 0.01 0.002; do
  for q in $($cli queries | awk '{print $1}'); do
    echo "== $q --sf $sf"
    $cli explain -q "$q" --sf "$sf" --jobs "$jobs"
  done
done
