#!/bin/sh
# Byte-identity sweep over the deterministic bench drivers.
#
# The simulator is fully deterministic, so every bench driver's stdout is a
# function of the code alone — any wall-clock-only optimization (event queue,
# allocators, copy elimination) must leave all of it byte-identical. This
# script runs each driver that has a golden capture under
# tests/goldens/bench/ and diffs its stdout against the capture.
#
# Excluded by construction (no golden committed): micro_primitives
# (google-benchmark, host-timing output; machine-dependent by design).
#
# Usage: check_bench_identity.sh <build_dir> [golden_dir] [name]
#   With `name` (e.g. fig10_regex) only that driver is checked against
#   <golden_dir>/<name>.txt; without it, every golden in golden_dir is.
# Exit: 0 when every output matches, 1 otherwise.

set -u

usage="usage: check_bench_identity.sh <build_dir> [golden_dir] [name]"
build_dir="${1:?$usage}"
golden_dir="${2:-$(dirname "$0")/../tests/goldens/bench}"
only="${3:-}"

if [ -n "$only" ]; then
  [ -e "$golden_dir/$only.txt" ] || {
    echo "no golden $golden_dir/$only.txt" >&2
    exit 1
  }
  goldens="$golden_dir/$only.txt"
else
  goldens="$golden_dir/*.txt"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
ran=0
# $goldens is a path or a glob; it is left unquoted so the glob expands
# (golden names carry no spaces).
for golden in $goldens; do
  [ -e "$golden" ] || { echo "no goldens in $golden_dir" >&2; exit 1; }
  name="$(basename "$golden" .txt)"
  bin="$build_dir/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "MISSING: $bin (build the bench targets first)" >&2
    fail=1
    continue
  fi
  if ! "$bin" >"$tmp/$name.txt" 2>"$tmp/$name.err"; then
    echo "FAILED: $name (nonzero exit)" >&2
    sed 's/^/    /' "$tmp/$name.err" >&2
    fail=1
    continue
  fi
  if ! diff -u "$golden" "$tmp/$name.txt" >"$tmp/$name.diff"; then
    echo "DIFF: $name output diverged from tests/goldens/bench/$name.txt" >&2
    head -40 "$tmp/$name.diff" >&2
    fail=1
    continue
  fi
  ran=$((ran + 1))
done

if [ "$fail" -ne 0 ]; then
  echo "bench identity: FAILED (ran $ran)" >&2
  exit 1
fi
echo "bench identity: OK ($ran drivers byte-identical)"
