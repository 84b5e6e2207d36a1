#!/usr/bin/env bash
# Non-test Rust line counts per crate, as a markdown table.
#
#   ci/loc.sh [<repo root>]
#
# Each file is cut at its first column-0 `#[cfg(test)]` (its test modules; a
# test-only method inside an `impl` counts as code); the script fails, naming
# the line, when an item follows that cut, because no row would count it.
# `tests/`, `benches/` and `examples/` are skipped; the offline stand-ins under
# `crates/compat/` are listed apart from the code that is ours. `code` leaves
# out blank and `//` comment lines, `lines` does not; `pub fn` counts the
# non-test `pub fn` items (public API; `pub(crate)` and narrower are not
# counted), so a change can report removed API next to removed lines.
# `bench (without e2e)` is the part of the bench crate a PR may edit: the
# `e2e` package under `src/bin/e2e/` is what `BENCHMARK.json` runs and stays
# as it is. The last seven
# rows are trajectories: the five files that answer "where do a session's lanes
# come from" (the ROADMAP's one-session-core item is measured by them), the two
# that say what a well-formed trace or chunk is and what is done when it is not,
# the four that reduce a window over a sorted stream (the level tree, the two
# summary structures on it, and the timeline cells built from them), the five
# that turn columns into checksummed store blocks and back (checksum, block
# codec, the packed column codec, the column types it fills, the varint
# codec), the five a report is
# computed by (detectors, statistics, derived metrics, their series type, the
# kernels), the five a trace file is read and written by (the format's
# reader, writer, varint codec and section table, and the byte cursor they — and
# the store directory and the wire protocol — decode fields with), and the four
# that say what a trace is and how it grows (the body and its builder, the event
# types, the columns the streams live in, and the session that follows a
# growing one).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

SESSION_FILES=(
    crates/core/src/session.rs
    crates/core/src/shared.rs
    crates/core/src/store_session.rs
    crates/core/src/live.rs
    crates/serve/src/manager.rs
)
INGEST_CONTRACT_FILES=(
    crates/trace/src/lint.rs
    crates/trace/src/streaming.rs
)
STORE_CODEC_FILES=(
    crates/trace/src/crc.rs
    crates/trace/src/store.rs
    crates/trace/src/packed.rs
    crates/trace/src/columns.rs
    crates/trace/src/format/varint.rs
)
AFTM_CODEC_FILES=(
    crates/trace/src/format/mod.rs
    crates/trace/src/format/reader.rs
    crates/trace/src/format/writer.rs
    crates/trace/src/format/varint.rs
    crates/trace/src/wire.rs
)
TRACE_MODEL_FILES=(
    crates/trace/src/trace.rs
    crates/trace/src/event.rs
    crates/trace/src/columns.rs
    crates/core/src/live.rs
)
REPORT_PATH_FILES=(
    crates/core/src/anomaly.rs
    crates/core/src/stats.rs
    crates/core/src/derived.rs
    crates/core/src/series.rs
    crates/core/src/kernels.rs
)

hidden=$(find src crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 -r awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test && /^(pub(\([^)]*\))? )?(unsafe )?(fn|struct|enum|impl|trait|const)[ <]/ {
        print FILENAME ":" FNR ": " $0
    }
')
if [ -n "$hidden" ]; then
    echo "ci/loc.sh: items after a file's first #[cfg(test)] are in no count; move the test module below them:" >&2
    echo "$hidden" >&2
    exit 1
fi

# Prints "<code> <lines> <pub fns>" summed over the files given on stdin.
count() {
    xargs -r awk '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        test { next }
        { lines++ }
        !/^[[:space:]]*(\/\/|$)/ { code++ }
        /^[[:space:]]*pub (const |unsafe |async |extern "[^"]*" )*fn[ <]/ { pubfns++ }
        END { print code + 0, lines + 0, pubfns + 0 }
    '
}

row() {
    read -r code lines pubfns
    printf '| %s | %s | %s | %s |\n' "$1" "$code" "$lines" "$pubfns"
}

echo '| crate | code | lines | pub fn |'
echo '| --- | ---: | ---: | ---: |'
find src -name '*.rs' | count | row aftermath
for dir in crates/*/; do
    name=$(basename "$dir")
    [ "$name" = compat ] && continue
    find "$dir/src" -name '*.rs' | count | row "$name"
done
find crates/bench/src -name '*.rs' -not -path '*/bin/e2e/*' | count | row 'bench (without e2e)'
find crates/compat -path '*/src/*' -name '*.rs' | count | row 'compat/* (stand-ins)'
find src crates -path crates/compat -prune -o -path '*/src/*' -name '*.rs' -print \
    | count | row '**total (without compat)**'
printf '%s\n' "${SESSION_FILES[@]}" | count | row '**the five session files**'
printf '%s\n' "${INGEST_CONTRACT_FILES[@]}" | count | row '**the ingest contract files**'
# By name, not from a list: a checkout from before the level tree was a file of
# its own has three of the four.
find crates/core/src -name timeline.rs -o -name pyramid.rs -o -name index.rs -o -name levels.rs \
    | count | row '**the window-reduction files**'
printf '%s\n' "${STORE_CODEC_FILES[@]}" | count | row '**the store codec files**'
printf '%s\n' "${REPORT_PATH_FILES[@]}" | count | row '**the report path files**'
printf '%s\n' "${AFTM_CODEC_FILES[@]}" | count | row '**the AFTM codec files**'
printf '%s\n' "${TRACE_MODEL_FILES[@]}" | count | row '**the trace model files**'
