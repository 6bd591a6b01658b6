#!/usr/bin/env bash
# Build perfbench (release) when its binary is missing or older than any
# source it is built from, then run it with the given arguments, from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload small_suite --seed 1 --seconds 10 --trace 0
#
# Outside a git checkout the sdv-engine build script asks Cargo to re-run
# it on every build (it watches .git/HEAD, which is absent there), and that
# relinks the whole fat-LTO binary: `cargo run` would rebuild for every
# run. Building only when a source changed keeps one build per checkout.
set -euo pipefail

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/perfbench"
stale() {
    [[ ! -x "$bin" ]] && return 0
    [[ -n "$(find crates perfbench/src perfbench/Cargo.toml perfbench/Cargo.lock \
        results/fig3.csv results/golden/fig3_small.csv -type f -newer "$bin" -print -quit)" ]]
}
if stale; then
    cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
