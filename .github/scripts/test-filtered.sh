#!/usr/bin/env bash
# Runs `cargo test <args> -- <filters>` after checking that every filter
# matches at least one test the selected targets list, so a renamed test
# fails the step instead of passing as "running 0 tests".
#
# usage: .github/scripts/test-filtered.sh <cargo test args>... -- <filter>...
set -euo pipefail
args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 <cargo test args>... -- <filter>..." >&2
  exit 2
fi
shift
names=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
missing=0
for f in "$@"; do
  if ! grep -qF -- "$f" <<<"$names"; then
    echo "::error::filter '$f' matches no test of 'cargo test ${args[*]}'"
    missing=1
  fi
done
[ "$missing" = 0 ] || exit 1
cargo test "${args[@]}" -- "$@"
