#!/bin/sh
# Every table row of an `ace_bench --suite ablations --render` output must appear
# verbatim (trailing blanks aside) in EXPERIMENTS.md, so the documented ablation
# numbers cannot drift from the code. Prints each missing row and exits 1. The
# render is the file the ablations regression gate writes (tools/CMakeLists.txt),
# so the suite runs once per test run.
#
# usage: experiments_sync.sh RENDER EXPERIMENTS_MD WORKDIR
set -eu
render=$1
doc=$2
work=$3
mkdir -p "$work"
grep ' | ' "$render" | sed 's/[[:space:]]*$//' > "$work/ablations_rows.txt"
sed 's/[[:space:]]*$//' "$doc" > "$work/experiments_trimmed.md"
rows=$(wc -l < "$work/ablations_rows.txt")
if [ "$rows" -eq 0 ]; then
  echo "no table rows rendered"
  exit 1
fi
if grep -Fxv -f "$work/experiments_trimmed.md" "$work/ablations_rows.txt" > "$work/missing.txt"; then
  echo "rows rendered by ace_bench --suite ablations --render but missing from $doc:"
  cat "$work/missing.txt"
  echo "paste the rendered views into $doc (see its section headings)"
  exit 1
fi
echo "all $rows rendered ablation rows are in $doc"
