#!/usr/bin/env bash
# Public functions that nothing else names: a list for reviewers, not a gate.
#
#   ci/uncalled.sh [<repo root>]
#
# Prints `file:line: name` for every non-test `pub fn` (the items the `pub fn`
# column of ci/loc.sh counts) whose name occurs nowhere but its own definition:
# not elsewhere in the non-test part of its own file (cut, as in ci/loc.sh, at
# the first column-0 `#[cfg(test)]`) and not in any other `.rs` file under
# crates/ (the compat stand-ins excluded), src/, tests/ or examples/. Names are
# matched as whole words, so a mention in a comment, or a function of the same
# name elsewhere, counts as a use: the list can miss an unused function, but
# every function it names is called by its own file's tests at most. Always
# exits 0.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src tests examples -path crates/compat -prune -o -name '*.rs' -print \
    | sort \
    | xargs awk '
        FNR == 1 { test = 0; files++ }
        /^#\[cfg\(test\)\]/ { test = 1 }
        {
            line = $0
            # The definitions: non-test `pub fn`s of library and binary sources.
            if (!test && FILENAME ~ /(^|\/)src\// \
                && line ~ /^[[:space:]]*pub (const |unsafe |async |extern "[^"]*" )*fn[ <]/) {
                def = line
                sub(/^.*fn[ ]+/, "", def)
                match(def, /^[A-Za-z_][A-Za-z0-9_]*/)
                name = substr(def, RSTART, RLENGTH)
                defs[++ndefs] = FILENAME SUBSEP FNR SUBSEP name
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                word = substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
                if (!((FILENAME, word) in seen)) {
                    seen[FILENAME, word] = 1
                    in_files[word]++
                }
                if (!test) {
                    own[FILENAME, word]++
                }
            }
        }
        END {
            for (i = 1; i <= ndefs; i++) {
                split(defs[i], d, SUBSEP)
                if (in_files[d[3]] == 1 && own[d[1], d[3]] == 1) {
                    print d[1] ":" d[2] ": " d[3]
                }
            }
        }
    '
