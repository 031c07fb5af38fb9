#!/usr/bin/env sh
# Tier-1 verification: build, tests, gated suites, formatting, lints.
# Offline-safe — no network access, no external dev-dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build svcbench (the service benchmark, a package outside the workspace)"
cargo build --release --locked --offline --manifest-path svcbench/Cargo.toml

# svcbench exits 0 even when an output is wrong; its last line carries
# the verdict. This is the only check of served bytes against the
# in-process reference on build_large and serve_recurring. The traced
# run (--trace 1) also reads the per-layer counters by name, so a
# counter the library drops fails here rather than in a benchmark run.
echo "==> svcbench correctness smoke (each workload, 1 s untraced and 1 s traced: last line must report \"correct\":true)"
for trace in 0 1; do
    for workload in serve_novel serve_recurring build_large; do
        last=$(cargo run --release --locked --offline --quiet --manifest-path svcbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
        case "$last" in
            *'"correct":true'*) echo "    $workload (trace $trace): correct" ;;
            *)
                echo "!! svcbench $workload (trace $trace): outputs differ from the in-process reference: $last"
                exit 1
                ;;
        esac
    done
done

echo "==> cargo test (tier-1, incl. differential fuzzy-vs-crisp suite)"
cargo test -q --workspace

echo "==> push_f64 against format! on 10^8 random bit patterns (release; tier-1 runs 10^6)"
cargo test -q --release --test codec_parity -- --ignored

echo "==> cargo test --no-default-features (observability compiled out)"
cargo test -q --workspace --no-default-features

echo "==> cargo test --features proptest (randomized property suites)"
cargo test -q --workspace --features proptest

echo "==> cargo build --features bench (harness benches compile)"
cargo build -q --features bench -p flames-bench --benches

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Runs one gated experiment binary. Keeps the previous BENCH_*.json
# around so a gate failure prints the old speedups next to the new ones
# instead of a bare assert message. A failed gate is recorded in
# $failed; the later gates still run and the script fails at the end.
failed=""
run_gate() {
    bin="$1"
    json="$2"
    if [ -f "$json" ]; then
        cp "$json" "$json.prev"
    fi
    if ! cargo run -q --release -p flames-bench --bin "$bin"; then
        echo "!! $bin gate failed"
        if [ -f "$json.prev" ] && [ -f "$json" ]; then
            echo "!! speedups, previous run ($json.prev) vs this run ($json):"
            grep -n '"speedup"' "$json.prev" | sed 's/^/!!   prev /' || true
            grep -n '"speedup"' "$json" | sed 's/^/!!   new  /' || true
        fi
        failed="$failed $bin"
        return 0
    fi
    rm -f "$json.prev"
}

echo "==> exp_perf (nogood-store kernel gate: results equal, nogood installs and hitting sets >= 2x)"
run_gate exp_perf BENCH_atms.json

echo "==> exp_batch (serving gate: byte-identical reports, warm pool >= 1.5x cold)"
run_gate exp_batch BENCH_batch.json

echo "==> exp_dc (conflict gate: closed-form Dc exact and >= 3x PWL)"
run_gate exp_dc BENCH_dc.json

echo "==> exp_strategy (planning gate: incremental candidates and probe planning >= 3x, byte-identical across threads, full loop no-regression)"
run_gate exp_strategy BENCH_strategy.json

echo "==> exp_shard (scaling gate: 5k-component board, candidates byte-identical across shard counts, sparse 1->4 >= 2x, dense no-regression)"
run_gate exp_shard BENCH_shard.json

echo "==> exp_serve (HTTP gate: served bytes == in-process wave reference, coalesced >= 1.5x one-request-per-wave)"
run_gate exp_serve BENCH_serve.json

echo "==> exp_learn (rule-cache gate: cold/miss reports == engine, warm hit rate >= 0.5 and >= 2x, cold >= 0.9x floor)"
run_gate exp_learn BENCH_learn.json

echo "==> serve_http example with observability compiled out (server must serve with no-op metrics)"
if ! cargo run -q --example serve_http --no-default-features; then
    echo "!! serve_http (observability off) failed"
    failed="$failed serve_http"
fi

if [ -n "$failed" ]; then
    echo "verify: FAILED gates:$failed"
    exit 1
fi
echo "verify: OK"
