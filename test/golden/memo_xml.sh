#!/bin/sh
# Print, for every bundled statement at SF 0.01 and SF 0.002 (8 nodes), one
# line with the statement id, the byte count and the MD5 of its MEMO
# interchange document (`memo -q <id> --xml`). Run from the repository root:
#
#   sh test/golden/memo_xml.sh > test/golden/memo_xml.txt
#
# The committed memo_xml.txt is this output; a change that is meant to keep
# the interchange format must leave the regenerated file equal to it.
set -e
dune build bin/opdw_cli.exe
cli=./_build/default/bin/opdw_cli.exe
doc=$(mktemp)
trap 'rm -f "$doc"' EXIT
for sf in 0.01 0.002; do
  echo "== memo --xml --sf $sf"
  for q in $($cli queries | awk '{print $1}'); do
    $cli memo -q "$q" --sf "$sf" --xml > "$doc"
    echo "$q $(wc -c < "$doc" | tr -d ' ') $(md5sum < "$doc" | cut -d' ' -f1)"
  done
done
