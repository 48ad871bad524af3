#!/usr/bin/env bash
# Run the full set twice on the same tree with the same seed — end-to-end
# and traced — and hold the two against the benchmark's own bounds: every
# workload x end-to-end metric within its bound, sim_cycles_per_kb and every
# count of the ledger equal, nothing failed. Exits non-zero otherwise.
#
#   benchmark/repeat.sh [SEED] [further arguments for both runs, e.g. --quick]
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
shift || true
status=0
for set in a b; do
  for trace in 0 1; do
    bash benchmark/run.sh --seed "$seed" --trace "$trace" --out "benchmark/out/repeat-$set" "$@" \
      || status=1
  done
done
bash benchmark/run.sh --compare benchmark/out/repeat-a benchmark/out/repeat-b || status=1
exit "$status"
