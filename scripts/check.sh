#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the tier-1 build + test pass.
# Everything runs --offline; the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: release build + tests =="
cargo build --release --offline
cargo test -q --offline

echo "== workspace tests =="
cargo test --workspace -q --offline

echo "== workspace tests again on real OS threads (WJ_EXECUTOR=threads; =="
echo "==   replay mode, so every assertion must hold bit-for-bit)       =="
WJ_EXECUTOR=threads cargo test -q --offline

echo "== fault-matrix smoke run =="
cargo run --release --offline -q -p bench --bin repro -- fault-matrix --quick

echo "== restart-cost smoke run (asserts delta < full ckpt bytes at cadence 1) =="
cargo run --release --offline -q -p bench --bin repro -- restart-cost --quick

echo "== chaos soak (fault storms x cadence x rebase; bit-identical or typed) =="
cargo run --release --offline -q -p bench --bin repro -- chaos --quick

echo "== backend-matrix smoke run (fails on cross-backend divergence) =="
cargo run --release --offline -q -p bench --bin repro -- backend-matrix --quick

echo "== wallclock smoke run (executor seam: thread-replay bit-identity =="
echo "==   with faults+restarts, free-run value identity, speedup gate)  =="
cargo run --release --offline -q -p bench --bin repro -- wallclock --quick

echo "== dist smoke run (socket ranks: threads + OS processes vs mpi-sim, =="
echo "==   ephemeral loopback ports, every wire wait deadline-bounded)    =="
cargo run --release --offline -q -p bench --bin repro -- dist --quick

echo "== service smoke run (jitd daemon: in-process boot, seeded client  =="
echo "==   storm; every request ends in a reply or typed shed in-deadline) =="
cargo run --release --offline -q -p bench --bin repro -- service --quick

echo "== incremental re-JIT smoke run (asserts >=10x body-edit speedup, =="
echo "==   strictly fewer queries than cold, bit-identical artifacts)   =="
cargo run --release --offline -q -p bench --bin repro -- incremental --quick

echo "== benchmark helper tests (perfbench, its own workspace) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark kernel smoke run (exits nonzero on a wrong output or a =="
echo "==   divergence from the serial loop; checks the engine end to end)  =="
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload kernel --seed 1 --seconds 3 --trace 0

echo "== benchmark ranks smoke run (exits nonzero on a wrong ring result or =="
echo "==   a dist / host-mt / thread-executor run diverging from the serial  =="
echo "==   loop; checks the scheduler and the dist transport end to end)     =="
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload ranks --seed 1 --seconds 3 --trace 0

echo "== disk-cache round-trip smoke =="
# jit once (cold, persists the artifact), then re-jit from a fresh
# process and assert zero translator work (--expect-warm exits nonzero
# if anything translated).
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
cargo run --release --offline -q --example warm_start -- "$CACHE_DIR"
cargo run --release --offline -q --example warm_start -- "$CACHE_DIR" --expect-warm

echo "OK"
