#!/bin/sh
# Print the served scenarios of the CLI: the governed storm (`overload`),
# the topology advisor and the online grow + re-key storm (`topology`),
# the feedback calibration pass (`calibrate`) and the plan store
# (`planstore`), all at 4 nodes, SF 0.002 unless stated otherwise. Run from
# the repository root:
#
#   sh test/golden/serve.sh > test/golden/serve.txt
#
# The committed serve.txt is this output; a change that is meant to keep
# what a served storm returns and accounts must leave the regenerated file
# equal to it. `overload` runs at --jobs 1 because the gate's `queued`
# count depends on timing under a domain pool.
set -e
dune build bin/opdw_cli.exe
cli=./_build/default/bin/opdw_cli.exe
leg() {
  echo "== $*"
  $cli "$@"
}
leg overload --nodes 4 --sf 0.002 --statements 24 --jobs 1 --memo-budget 8 --max-concurrent 2
leg overload --nodes 4 --sf 0.002 --statements 12 --jobs 1 -q Q20 --max-concurrent 1 --queue-limit 2 --memo-budget 8
leg topology advise --nodes 4 --sf 0.002 --statements 24
leg topology apply --nodes 2 --grow 4 --sf 0.002 --statements 24 --jobs 1
leg topology apply --nodes 4 --grow 8 --sf 0.002 --statements 24 --fault-rate 0.05 --fault-seed 3 --jobs 1
# the grow spends its budget: the storm still finishes and the CLI exits 1
leg topology apply --nodes 4 --grow 8 --sf 0.002 --statements 24 --fault-rate 0.3 --fault-seed 4 --jobs 1 \
  || echo "exit $?"
leg calibrate --nodes 4 --sf 0.002 --jobs 1
leg calibrate --nodes 4 --sf 0.002 --jobs 1 --json
leg planstore --nodes 4 --sf 0.002 -q Q3 --inject-regression --jobs 1
leg planstore --nodes 4 --sf 0.002 --json --jobs 1
