#!/usr/bin/env bash
# Prints the non-test line count of every Rust source file under
# crates/*/src, then one total per crate and a grand total.
#
# A file's count is its lines before the first `#[cfg(test)]`, leaving
# out blank lines and comment lines (any line whose first non-blank
# characters are `//`, doc comments included). Run from anywhere:
#
#     ci/loc.sh            # every crate
#     ci/loc.sh core       # only crates/core
#
# Report-only: the exit status is 0 whatever the counts are.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

count() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

grand=0
summary=""
for crate in "${crates[@]}"; do
    total=0
    while IFS= read -r file; do
        n=$(count "$file")
        printf '%6d  %s\n' "$n" "$file"
        total=$((total + n))
    done < <(find "crates/$crate/src" -name '*.rs' | sort)
    summary+="$(printf '%6d  crates/%s' "$total" "$crate")"$'\n'
    grand=$((grand + total))
done
printf '\n%s' "$summary"
printf '%6d  total\n' "$grand"
