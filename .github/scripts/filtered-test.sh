#!/usr/bin/env bash
# `cargo test` by name filter, failing when the filter ran fewer tests than
# the step expects: a renamed test must not pass on "0 passed".
#
#   .github/scripts/filtered-test.sh MIN <cargo test arguments>
#
# MIN is the least number of tests the arguments must select, summed over
# every test binary the invocation runs. Environment (PROPTEST_CASES=…)
# passes through to cargo.
set -euo pipefail
min=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
ran=$(awk '/^test result: ok\./ { n += $4 } END { print n + 0 }' "$out")
if [ "$ran" -lt "$min" ]; then
  echo "filtered-test: \`cargo test $*\` ran $ran test(s), expected at least $min" >&2
  exit 1
fi
