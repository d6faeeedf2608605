#!/usr/bin/env bash
# Non-test lines of Rust, per crate and in total — the method behind
# every line count ROADMAP.md and CHANGES.md quote.
#
# A file's non-test lines are the lines before its first column-0
# `#[cfg(test)]` (all of them when it has none): blank lines, comments
# and docs count, the trailing unit-test module does not.
#
# Usage: scripts/loc.sh                  crates/*/src, per crate and in total
#        scripts/loc.sh PATH...          the given files and directories
#        scripts/loc.sh --against REV    crates/*/src of git revision REV next
#                                        to the working tree's, as a table
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the non-test lines of the .rs files under the given paths.
lines() {
  find "$@" -name '*.rs' -print0 2>/dev/null | sort -z |
    xargs -0 -r awk 'FNR == 1 { counting = 1 }
                     /^#\[cfg\(test\)\]/ { counting = 0 }
                     counting { n++ }
                     END { print n + 0 }' |
    awk '{ n += $1 } END { print n + 0 }'
}

# Prints "<lines> <label>" for the .rs files under the given paths.
count() {
  local label=$1
  shift
  printf '%7d  %s\n' "$(lines "$@")" "$label"
}

if [[ ${1:-} == --against ]]; then
  rev=${2:?usage: scripts/loc.sh --against REV}
  old=$(mktemp -d)
  trap 'rm -rf "$old"' EXIT
  git archive "$rev" crates | tar -x -C "$old"
  echo "| crate | $(git rev-parse --short "$rev") | now | Δ |"
  echo "|---|---|---|---|"
  row() {
    local label=$1 before after
    shift
    before=$(cd "$old" && lines "$@")
    after=$(lines "$@")
    printf '| %s | %d | %d | %+d |\n' "$label" "$before" "$after" $((after - before))
  }
  for crate in $( (ls -d crates/*/ && cd "$old" && ls -d crates/*/) | sort -u); do
    row "\`${crate}src\`" "${crate}src"
  done
  row '**`crates/*/src`**' crates/*/src
elif [[ $# -gt 0 ]]; then
  for path in "$@"; do
    count "$path" "$path"
  done
  count total "$@"
else
  for crate in crates/*/; do
    count "${crate}src" "${crate}src"
  done
  count total crates/*/src
fi
