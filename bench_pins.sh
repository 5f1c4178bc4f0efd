#!/bin/sh
# Runs each benchmark cell of tests/golden/bench_pins.txt at seed 42 and
# checks its pins: `sim.digest` equals the pinned digest, and
# `sim.engine.steps_per_op` stays under the ceiling where one is set. With
# UPDATE_GOLDEN set it rewrites the digest column from the runs instead
# (ceilings are still checked). Building the benchmark rewrites
# benchmark/Cargo.lock; the script puts the committed file back on exit.
#
#   ./bench_pins.sh                   # check
#   UPDATE_GOLDEN=1 ./bench_pins.sh   # regenerate the digests
set -f
cd "$(dirname "$0")" || exit 1
pins=tests/golden/bench_pins.txt
tmp=$(mktemp -d) || exit 1
cp benchmark/Cargo.lock "$tmp/Cargo.lock" || exit 1
trap 'cp "$tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

status=0
while IFS= read -r line; do
  case $line in '' | '#'*) printf '%s\n' "$line" >> "$tmp/pins"; continue ;; esac
  set -- $line
  cell=$1 digest=$2 ceiling=$3
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload "$cell" --seed 42 --seconds 1 --trace 1 < /dev/null > "$tmp/run.out" || exit 1
  got=$(awk '$2 == "sim.digest" { printf "%.0f\n", $3 }' "$tmp/run.out")
  steps=$(awk '$2 == "sim.engine.steps_per_op" { print $3 }' "$tmp/run.out")
  echo "$cell: sim.digest $got (pinned $digest), steps/op $steps (ceiling $ceiling)"
  if [ -z "$got" ] || [ -z "$steps" ]; then
    echo "$cell: the run reported no sim.digest or steps/op" >&2
    exit 1
  fi
  if [ "$ceiling" != - ] && ! awk -v s="$steps" -v c="$ceiling" 'BEGIN { exit !(s < c) }'; then
    echo "$cell: $steps steps per op, ceiling $ceiling" >&2
    status=1
  fi
  if [ -n "${UPDATE_GOLDEN+set}" ]; then
    digest=$got
  elif [ "$got" != "$digest" ]; then
    echo "$cell: sim.digest $got, pinned $digest" >&2
    status=1
  fi
  echo "$cell $digest $ceiling" >> "$tmp/pins"
done < "$pins"
if [ -n "${UPDATE_GOLDEN+set}" ]; then
  cp "$tmp/pins" "$pins"
fi
exit $status
