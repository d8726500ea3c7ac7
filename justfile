# Local development recipes, kept in lockstep with .github/workflows/ci.yml.

# List recipes.
default:
    @just --list

# Release build of every target (libs, 17 exp_* bins, 5 benches, examples, tests).
build:
    cargo build --release --workspace --all-targets

# Unit, integration, and doc-tests for the whole workspace.
test:
    cargo test -q --workspace

# Formatting and clippy, exactly as CI runs them.
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc for the whole workspace, warnings denied (as CI runs it).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Print the algorithm registry (key, communication model, description).
list-algorithms:
    cargo run -p mis-sim --bin list_algorithms

# Apply formatting and mechanical clippy fixes.
fix:
    cargo fmt
    cargo clippy --workspace --all-targets --fix --allow-dirty -- -D warnings

# Churn experiment: incremental re-stabilization vs cold restart after
# edge-churn bursts (full scale: n = 10^6 across a fraction sweep).
churn *ARGS:
    cargo run --release -p mis-bench --bin exp_churn -- {{ARGS}}

# Byzantine experiment: adversarial containment within radius 2 of the
# Byzantine set (full scale: n = 10^6, fraction sweep + hub placement).
byzantine *ARGS:
    cargo run --release -p mis-bench --bin exp_byzantine -- {{ARGS}}

# Graph-service daemon on 127.0.0.1:7878 (override: `just serve --addr ...`).
serve *ARGS:
    cargo run --release -p mis-service --bin mis-serve -- {{ARGS}}

# Service load generator: thousands of concurrent jobs against an
# in-process daemon; writes results/svc_load.json and BENCH_service.json.
load *ARGS:
    cargo run --release -p mis-bench --bin svc_load -- {{ARGS}}

# Chaos harness: kill-and-restart cycles under concurrent traffic through
# a fault-injecting proxy, verifying zero acknowledged-job loss; writes
# results/svc_chaos.json and BENCH_recovery.json.
chaos *ARGS:
    cargo run --release -p mis-bench --bin svc_chaos -- {{ARGS}}

# Recovery demo: boot the daemon on a scratch data dir, seed it with a
# graph and a job, kill it, then restart on the same dir and show the
# replayed state.
recover:
    #!/usr/bin/env bash
    set -euo pipefail
    dir=$(mktemp -d /tmp/mis-recover-XXXX)
    cargo build --release -p mis-service --bin mis-serve
    ./target/release/mis-serve --addr 127.0.0.1:7979 --data-dir "$dir" &
    pid=$!
    sleep 1
    curl -s -X POST 127.0.0.1:7979/v1/graphs -d '{"name": "demo", "spec": {"Gnp": {"n": 64, "p": 0.1}}, "seed": 7}' > /dev/null
    curl -s -X POST 127.0.0.1:7979/v1/jobs -d '{"graph": 1, "algorithm": "two-state", "seed": 1}' > /dev/null
    sleep 1
    kill -9 $pid
    echo "-- killed daemon; restarting on $dir --"
    ./target/release/mis-serve --addr 127.0.0.1:7979 --data-dir "$dir" &
    pid=$!
    sleep 1
    curl -s 127.0.0.1:7979/v1/metrics
    echo
    curl -s 127.0.0.1:7979/v1/graphs
    echo
    kill $pid
    rm -rf "$dir"

# Criterion micro-benchmarks.
bench:
    cargo bench -p mis-bench

# Early-phase dense vs sparse round cost at n = 10^6 (the direction-
# optimizing engine's crossover group).
bench-phase:
    cargo bench -p mis-bench --bench dense_vs_sparse

# Persistent-pool dispatch overhead vs spawn-per-broadcast, plus the
# ≤2-dispatches-per-round budget assertion.
bench-pool:
    cargo bench -p mis-bench --bench pool_overhead

# Run one experiment binary at paper scale: `just exp e1_clique`.
exp NAME *ARGS:
    cargo run --release -p mis-bench --bin exp_{{NAME}} -- {{ARGS}}

# Quick smoke run of one experiment: `just smoke e1_clique`.
smoke NAME:
    cargo run --release -p mis-bench --bin exp_{{NAME}} -- --quick

# Everything CI enforces, in CI's order.
ci:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    cargo build --release --workspace --all-targets
    cargo test -q --workspace
    cargo run --release -p mis-sim --bin list_algorithms
    cargo run --release -p mis-bench --bin exp_e1_clique -- --quick
    test -s results/e1_clique.csv
    cargo run --release -p mis-bench --bin exp_e13_comm_models -- --quick
    test -s results/e13_comm_models.csv
    cargo run --release -p mis-bench --bin exp_e8_log_switch -- --quick
    test -s results/e8_log_switch.csv
    cargo run --release -p mis-bench --bin exp_e11_fault_recovery -- --quick
    test -s results/e11_fault_recovery.csv
    cargo run --release -p mis-bench --bin exp_scale -- --quick --strategy auto
    test -s results/exp_scale.json
    cargo run --release -p mis-bench --bin exp_churn -- --quick
    test -s results/exp_churn.json
    cargo run --release -p mis-bench --bin exp_byzantine -- --quick
    test -s results/exp_byzantine.json
    cargo run --release -p mis-bench --bin svc_load -- --quick
    test -s results/svc_load.json
    cargo run --release -p mis-bench --bin svc_chaos -- --quick
    test -s results/svc_chaos.json
