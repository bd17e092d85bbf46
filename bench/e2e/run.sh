#!/usr/bin/env bash
# Build mtc and the benchmark runner from source (release profile, into
# .bench_build/), then run the runner with this script's arguments:
#
#   bash bench/e2e/run.sh --workload feed-ser-gc --seed 1 --seconds 20 --trace 0
#
# Run from the root of a source tree.  Build output goes to stderr, so
# the runner's last line of stdout stays its JSON result.
set -euo pipefail

export DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/.bench_build/cache"
dune build --root . --profile release --build-dir .bench_build \
  ./bin/mtc_cli.exe ./bench/e2e/mtcbench.exe 1>&2
exec .bench_build/default/bench/e2e/mtcbench.exe \
  --mtc .bench_build/default/bin/mtc_cli.exe "$@"
