#!/usr/bin/env bash
# Builds the benchmark suite (once; later runs rebuild only what changed)
# and runs one workload in its own process:
#
#   bench/suite/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#   bench/suite/run.sh --sweep
#
# The build lives in .bench_build/suite at the repository root; the build
# log goes to .bench_build/suite/build.log so the workload's report stays
# the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/suite"
mkdir -p "$build"
log="$build/build.log"

configure() {
  [[ -f "$build/Makefile" ]] || cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
}
if ! { configure && cmake --build "$build" --target taser_suite -j "$(nproc)"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "bench/suite: build failed (full log: $log)" >&2
  exit 2
fi

# OpenMP team size, pinned and recorded in every result.
export OMP_NUM_THREADS=4
# One malloc arena: with glibc's per-thread arenas the peak RSS of one
# train-taser seed ranged from 690 to 1060 MB with fragmentation alone;
# with one arena it stays within a few percent, at the same speed.
export MALLOC_ARENA_MAX=1
cd "$root"
exec "$build/taser_suite" "$@"
