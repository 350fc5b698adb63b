#!/bin/sh
# Lists every test of each gtest binary twice and fails on any difference.
# ctest tracks a test by its listed name, so a name that changes between
# runs (a parameter printed as raw bytes, addresses included) changes the
# suite's test list on every build.
#
# usage: stable_test_names.sh <gtest-binary>...
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

status=0
for bin in "$@"; do
  "$bin" --gtest_list_tests > "$WORK/first"
  "$bin" --gtest_list_tests > "$WORK/second"
  if ! cmp -s "$WORK/first" "$WORK/second"; then
    echo "FAIL: $(basename "$bin") lists different test names per run:" >&2
    diff "$WORK/first" "$WORK/second" | head -6 >&2 || true
    status=1
  fi
done
exit "$status"
