#!/usr/bin/env bash
# Non-test lines of Rust, per crate and in total — the method behind
# every line count ROADMAP.md and CHANGES.md quote.
#
# A file's non-test lines are the lines before its first column-0
# `#[cfg(test)]` (all of them when it has none): blank lines, comments
# and docs count, the trailing unit-test module does not.
#
# Usage: scripts/loc.sh            crates/*/src, per crate and in total
#        scripts/loc.sh PATH...    the given files and directories
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<lines> <label>" for the .rs files under the given paths.
count() {
  local label=$1
  shift
  find "$@" -name '*.rs' -print0 2>/dev/null | sort -z |
    xargs -0 -r awk 'FNR == 1 { counting = 1 }
                     /^#\[cfg\(test\)\]/ { counting = 0 }
                     counting { n++ }
                     END { print n + 0 }' |
    awk -v label="$label" '{ n += $1 } END { printf "%7d  %s\n", n, label }'
}

if [[ $# -gt 0 ]]; then
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
