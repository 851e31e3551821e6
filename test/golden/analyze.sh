#!/bin/sh
# Print `analyze --all` (8 nodes) at SF 0.002 and SF 0.01: every workload
# plan annotated with its static cardinality bounds, type errors and
# contradictions. Run from the repository root:
#
#   sh test/golden/analyze.sh > test/golden/analyze.txt
#
# The committed analyze.txt is this output; a change that is meant to keep
# the analyzer's verdicts must leave the regenerated file equal to it.
set -e
dune build bin/opdw_cli.exe
cli=./_build/default/bin/opdw_cli.exe
for sf in 0.002 0.01; do
  echo "== analyze --all --sf $sf"
  $cli analyze --all --sf "$sf"
done
