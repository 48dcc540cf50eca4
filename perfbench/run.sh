#!/bin/sh
# Build the harness and the mdpriv daemon from source, then run one
# workload:
#   sh perfbench/run.sh --workload paper-small --seed 1 --seconds 20 --trace 0
# Run from the repository root. The last line of stdout is the JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an mdpriv source tree" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/mdpriv.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
