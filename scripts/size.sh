#!/bin/sh
# Non-test code lines of the workspace's crates: the total, then each crate.
#
# A line that starts with `#[cfg(test)]` (after indentation) drops itself
# and the item under it — braces matched, or up to its `;` — and counting
# goes on after it. Blank lines and `//` lines are not counted. A brace
# inside a string or char literal of a skipped test item would miscount it.
#
# Usage: scripts/size.sh [ROOT]    a checkout (default: this repository)
#        scripts/size.sh FILE.rs   one file
set -eu
n() { awk '
  skip { for (i = 1; i <= length($0); i++) { ch = substr($0, i, 1); if (ch == "{") { d++; open = 1 } else if (ch == "}") d-- }
         if ((open && d <= 0) || (!open && $0 ~ /;[ \t]*$/)) { skip = 0 } ; next }
  /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; d = 0; open = 0; next }
  { l = $0; sub(/^[ \t]+/, "", l); if (l == "" || l ~ /^\/\//) next; c++ }
  END { print c + 0 }' "$1"; }
if [ -f "${1:-}" ]; then n "$1"; exit 0; fi
cd "${1:-$(dirname "$0")/..}"
sum() { t=0; for f in $(find "$1" -path '*/src/*.rs' | sort); do t=$((t + $(n "$f"))); done; echo "$t"; }
echo "crates/*/src $(sum crates)"
for c in crates/*/; do echo "${c%/} $(sum "$c")"; done
