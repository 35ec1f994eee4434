#!/usr/bin/env bash
# Checks that the working tree's simulator writes the same reports as the
# commit BASE_REF. Builds BASE_REF's elsq-lab in a temporary git worktree
# under target/same-reports/ (the worktree is removed afterwards; its build
# directory stays for the next run), then runs both binaries on
#
#   run --all --seed 7 --jobs 2 --format json   (one report per experiment)
#   test suites/ --jobs 2 --format json         (the working tree's suites)
#
# and compares every report with `elsq-lab diff --tol 0`, which compares
# each cell exactly and skips wall time. The suite outcome is not a report,
# so it and the exit code of `test` are compared byte for byte.
#
# Usage: ci/same_reports.sh BASE_REF   (e.g. `ci/same_reports.sh HEAD~1`)
# Exits 0 when nothing moved, 1 when any report, cell or suite outcome
# differs, 2 on a usage error.
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
base_rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "$0: not a commit: $1" >&2
    exit 2
}
work=$root/target/same-reports
tree=$work/base-tree
rm -rf "$work/base" "$work/head" "$tree"
git worktree prune
mkdir -p "$work"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git -C "$root" worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" "$base_rev"

echo "building the working tree and $1 ($base_rev)"
cargo build --release --offline --quiet -p elsq-bench --bin elsq-lab
(cd "$tree" && CARGO_TARGET_DIR="$work/base-target" \
    cargo build --release --offline --quiet -p elsq-bench --bin elsq-lab)

reports() {
    local lab=$1 out=$2 rc=0
    mkdir -p "$out"
    "$lab" run --all --seed 7 --jobs 2 --format json --out "$out/run" > /dev/null
    "$lab" test suites/ --jobs 2 --format json > "$out/suites.json" || rc=$?
    echo "$rc" > "$out/suites.exit"
}
reports "$work/base-target/release/elsq-lab" "$work/base"
reports "$root/target/release/elsq-lab" "$work/head"

lab=$root/target/release/elsq-lab
status=0
if ! diff <(cd "$work/base/run" && ls) <(cd "$work/head/run" && ls); then
    echo "the two sides wrote different report files"
    status=1
fi
for report in "$work/head/run"/*.json; do
    name=$(basename "$report")
    [ -f "$work/base/run/$name" ] || continue
    "$lab" diff --tol 0 "$work/base/run/$name" "$report" || status=1
done
for file in suites.json suites.exit; do
    if ! cmp "$work/base/$file" "$work/head/$file"; then
        echo "test suites/: $file differs"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "same reports as $1: every cell of every report, and the suite outcome"
fi
exit "$status"
