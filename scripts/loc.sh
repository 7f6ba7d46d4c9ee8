#!/usr/bin/env sh
# Prints the workspace's non-test Rust line count: every line of every `.rs`
# file under `src/`, `examples/` and `crates/` up to that file's first
# `#[cfg(test)]`, skipping `tests/` directories. Blank and comment lines
# count. POSIX sh plus awk only.
#
#   scripts/loc.sh            # run from anywhere inside the repository
set -eu

cd "$(dirname "$0")/.."
find src examples crates -name '*.rs' ! -path '*/tests/*' -type f | awk '
    {
        file = $0
        in_test = 0
        while ((getline line < file) > 0) {
            if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) in_test = 1
            if (!in_test) n++
        }
        close(file)
    }
    END { print n + 0 }
'
