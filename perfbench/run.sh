#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.
set -euo pipefail
dune build --root . ./perfbench/main.exe 1>&2
# Not exec: the benchmark must not inherit the build's child-process
# resource usage, or its peak RSS would report the build's.
./_build/default/perfbench/main.exe "$@"
