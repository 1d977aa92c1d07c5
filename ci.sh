#!/usr/bin/env sh
# Hermetic CI gate: the workspace must build, test, and stay formatted
# with zero network access. Every dependency is an in-repo path crate,
# so `--offline` is expected to just work; if it ever fails, a network
# dependency has crept back in and that is the bug.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> benchmark harness build + smoke (e2ebench, its own workspace)"
# e2ebench calls the library's public flow (build_datapath, build_fsm,
# hardwired_logic, microcode, SynthesisResult by struct literal); its
# --smoke test runs every workload, traced and untraced, with the output
# checks, so an API break shows here rather than only in benchmark runs.
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> panic-free library check (crates/sched, crates/alloc, crates/ctrl, crates/opt, crates/rtl, crates/sim, crates/core, crates/par, crates/serve)"
# Library code on the synthesis path must report errors, never panic
# (DESIGN.md §6); crates/par is the pool every sweep runs on, and
# crates/serve puts the flow behind HTTP (its library code only: the
# globs do not reach src/bin). Strip line comments, keep only the text
# above any #[cfg(test)] marker, and fail on panicking constructs:
# panic!, unreachable!, .unwrap(), .expect( and `map[&key]` indexing.
panic_check_failed=0
for f in crates/sched/src/*.rs crates/alloc/src/*.rs crates/ctrl/src/*.rs \
    crates/opt/src/*.rs crates/rtl/src/*.rs crates/sim/src/*.rs crates/core/src/*.rs \
    crates/par/src/*.rs crates/serve/src/*.rs; do
    hits=$(awk '/#\[cfg\(test\)\]/ { exit } { sub(/\/\/.*/, ""); print }' "$f" \
        | grep -nE 'panic!|\.unwrap\(\)|unreachable!|\.expect\(|[]A-Za-z0-9_)]\[&' || true)
    # The one exemption: a `test_panic` request (honored only when the
    # server allows test delays) panics in /v1/synthesize on purpose, so
    # the panic-firewall e2e test can prove the listener answers 500 and
    # the worker survives.
    if [ "$f" = crates/serve/src/server.rs ]; then
        hits=$(printf '%s\n' "$hits" \
            | grep -vF 'panic!("test-injected panic in synthesize stage");' || true)
    fi
    if [ -n "$hits" ]; then
        echo "panic-prone construct in library code: $f"
        echo "$hits"
        panic_check_failed=1
    fi
done
[ "$panic_check_failed" -eq 0 ] || exit 1

echo "==> deterministic experiments match experiments_output.txt"
# Every section of `experiments all` is deterministic except the four
# wall-clock tables; drop those from both the run and the committed
# transcript and require the rest byte-identical.
deterministic_sections() {
    awk '/^############ / { skip = ($2 == "table-explore" || $2 == "table-estimator" \
        || $2 == "table-serve" || $2 == "table-serve-scaleout") } !skip'
}
experiments_run=$(mktemp)
target/release/experiments all | deterministic_sections >"$experiments_run"
deterministic_sections <experiments_output.txt | diff -u - "$experiments_run"
rm -f "$experiments_run"

echo "==> benchmark regression gate (BENCH_5.json)"
# Short sample count for CI; the gate rescales by the calibration
# workload, so the committed baseline transfers across machines, and an
# absolute noise floor keeps microsecond-scale benchmarks from flaking.
HLS_BENCH_SAMPLES=3 HLS_BENCH_WARMUP=1 \
    cargo run --release --offline -q -p hls-bench --bin perf_gate -- --check BENCH_5.json

echo "==> estimator pruning agreement (E23 smoke)"
# Runs the pruned-vs-exhaustive comparison on diffeq and a 256-op
# synthetic grid; the binary itself asserts the pruned Pareto front is
# byte-identical and that at least 30% of grid points were skipped.
cargo run --release --offline -q -p hls-bench --bin experiments -- table-estimator --smoke

echo "==> fuzz corpus replay"
cargo run --release --offline -q -p hls-fuzz -- --replay tests/corpus

echo "==> fuzz smoke (500 iterations, fixed seed)"
cargo run --release --offline -q -p hls-fuzz -- --iters 500 --seed 0

echo "==> fuzz smoke, multi-process systems (100 iterations, fixed seed)"
cargo run --release --offline -q -p hls-fuzz -- --iters 100 --seed 1 --mode proc

echo "==> fuzz smoke, unrestricted sync patterns + deadlock verdicts (100 iterations)"
cargo run --release --offline -q -p hls-fuzz -- --iters 100 --seed 2 --mode proc-any

echo "==> shard front smoke (2 workers, 8-point batch, byte-stable warm NDJSON)"
# The front reads its workers' drain signal from stdin EOF, so hold its
# stdin open on a FIFO for the duration of the smoke and close it to
# shut the whole tree down gracefully.
front_log=$(mktemp)
front_fifo=$(mktemp -u)
mkfifo "$front_fifo"
target/release/hls-serve --front --workers 2 127.0.0.1:0 \
    <"$front_fifo" 2>"$front_log" &
front_pid=$!
exec 9>"$front_fifo"
front_addr=""
i=0
while [ $i -lt 100 ]; do
    front_addr=$(sed -n 's/.*front listening on \([0-9.:]*\) .*/\1/p' "$front_log")
    [ -n "$front_addr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$front_addr" ]; then
    echo "front never came up:"; cat "$front_log"; exit 1
fi
# batch-smoke: warms the cluster caches, then POSTs the same 8-point
# /v1/batch twice and requires every seq present in order and the two
# warm NDJSON streams byte-identical.
target/release/hls-loadgen "$front_addr" --batch-smoke
# Short /v1 closed loop through the front: per-template byte identity
# (bodies compared without their cache_hit flag) on the live wire.
target/release/hls-loadgen "$front_addr" 64 4
exec 9>&-   # stdin EOF -> front drains itself and its workers
wait "$front_pid"
rm -f "$front_fifo" "$front_log"

echo "CI OK"
