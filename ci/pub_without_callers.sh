#!/usr/bin/env bash
# Prints the name of every `pub fn` in the model crates (elsq-core,
# elsq-cpu, elsq-mem, elsq-isa) that appears nowhere but in its own
# definition and in its file's `#[cfg(test)]` module. The search covers the
# workspace crates, the root package's sources, tests and examples, and the
# benchmark's sources. Such a function is public only for its own unit
# tests: make it `pub(crate)`, put it under `#[cfg(test)]`, or delete it.
#
# Usage: ci/pub_without_callers.sh    (prints nothing when every export has
# a caller; the check is by name, so a name shared with any other item
# counts as a caller, while a mention in a comment does not)
set -u
cd "$(dirname "$0")/.."
search=(crates src tests examples perfbench/src)

for file in crates/core/src/*.rs crates/cpu/src/*.rs crates/mem/src/*.rs crates/isa/src/*.rs; do
    # The test module starts at a `#[cfg(test)]` line followed by `mod`.
    tests_at=$(awk 'prev ~ /^#\[cfg\(test\)\]/ && /^mod / { print NR - 1; exit } { prev = $0 }' "$file")
    tests_at=${tests_at:-999999999}
    grep -n -E '^[[:space:]]*pub (const )?fn ' "$file" | while IFS=: read -r line text; do
        [ "$line" -lt "$tests_at" ] || continue
        name=$(sed -E 's/^[[:space:]]*pub (const )?fn ([A-Za-z0-9_]+).*/\2/' <<<"$text")
        uses=$(grep -rnw --include='*.rs' -e "$name" "${search[@]}" |
            awk -F: -v f="$file" -v def="$line" -v t="$tests_at" \
                '!($1 == f && ($2 == def || $2 >= t)) && $3 !~ /^[[:space:]]*\/\//' |
            head -n 1)
        [ -n "$uses" ] || echo "$name"
    done
done | sort -u
