#!/usr/bin/env bash
# Non-test Rust lines: every line of crates/*/src/**/*.rs and src/**/*.rs
# up to (not including) the file's first top-level `#[cfg(test)]` module;
# a file that its parent declares as `#[cfg(test)] mod name;` is test
# code from its first line. Prints only; writes nothing.
#
#   ./loc.sh                  per-crate counts and the total
#   ./loc.sh --lines PATH...  the non-test lines themselves under the given
#                             files/directories, as `file:line:text`
#                             (per-file counts: `| cut -d: -f1 | uniq -c`)
set -euo pipefail
cd "$(dirname "$0")"

# The rule, once. A column-0 `#[cfg(test)]` is held back one line: if a
# `mod` follows, the file is cut there; otherwise it guarded some other
# item and both lines count. The files are read twice: the first pass
# only notes which files such a `mod name;` line declares (name.rs or
# name/mod.rs beside a lib.rs/main.rs/mod.rs, under the parent's own
# directory otherwise), the second prints and skips those whole.
non_test_lines() {
  local files
  files=$(find "$@" -name '*.rs' | sort)
  # shellcheck disable=SC2086
  awk '
    FNR == 1 { cut = 0; held = ""; pass += (FILENAME == first) }
    cut || (pass == 2 && FILENAME in test_only) { next }
    held != "" {
      if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) {
        if (pass == 1 && match($0, /mod [a-z_0-9]+;/)) {
          dir = FILENAME
          if (dir !~ /\/(lib|main|mod)\.rs$/) sub(/\.rs$/, "/x", dir)
          sub(/[^\/]*$/, "", dir)
          name = substr($0, RSTART + 4, RLENGTH - 5)
          test_only[dir name ".rs"] = test_only[dir name "/mod.rs"] = 1
        }
        cut = 1; next
      }
      if (pass == 2) print FILENAME ":" FNR - 1 ":" held
      held = ""
    }
    /^#\[cfg\(test\)\]$/ { held = $0; next }
    pass == 2 { print FILENAME ":" FNR ":" $0 }
  ' first="${files%%$'\n'*}" $files $files
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
