#!/usr/bin/env bash
# Non-test Rust lines: every line of crates/*/src/**/*.rs and src/**/*.rs
# up to (not including) the file's first top-level `#[cfg(test)]` module.
# Prints only; writes nothing.
#
#   ./loc.sh                  per-crate counts and the total
#   ./loc.sh --lines PATH...  the non-test lines themselves under the given
#                             files/directories, as `file:line:text`
#                             (per-file counts: `| cut -d: -f1 | uniq -c`)
set -euo pipefail
cd "$(dirname "$0")"

# The rule, once. A column-0 `#[cfg(test)]` is held back one line: if a
# `mod` follows, the file is cut there; otherwise it guarded some other
# item and both lines count.
non_test_lines() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { cut = 0; held = "" }
    cut { next }
    held != "" {
      if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { cut = 1; next }
      print FILENAME ":" FNR - 1 ":" held
      held = ""
    }
    /^#\[cfg\(test\)\]$/ { held = $0; next }
    { print FILENAME ":" FNR ":" $0 }
  '
}

if [[ "${1:-}" == "--lines" ]]; then
  shift
  non_test_lines "$@"
  exit
fi

non_test_lines crates/*/src src | awk -F: '
  { split($1, p, "/"); per[p[1] == "crates" ? p[2] : "(root)"]++ }
  END {
    for (k in per) { printf "%7d  %s\n", per[k], k | "sort -k2"; total += per[k] }
    close("sort -k2")
    printf "%7d  total non-test lines\n", total
  }
'
