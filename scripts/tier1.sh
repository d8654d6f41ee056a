#!/usr/bin/env sh
# Tier-1 verification gate: everything a PR must keep green.
#
#   sh scripts/tier1.sh
#
# Fully offline: the workspace vendors shims for all external crates
# (see Cargo.toml [workspace.dependencies]), so no network is needed.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

echo "== cargo test -q --release --offline -p uvacg -p ws-notification"
# The workspace's `default-members` make the `cargo test` above cover
# every crate in debug mode; the testbed's and the notification
# layer's unit tests (the ES `Run` dedupe, the listener lookups, topic
# matching, the broker's queued delivery) run again at release-mode
# speed, where the concurrent ones see real interleavings.
cargo test -q --release --offline -p uvacg -p ws-notification

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== fig3bench: build + unit tests"
# The end-to-end benchmark is its own package outside the workspace, so
# the workspace build above never compiles it; a transport API change
# that breaks it would otherwise only surface when the benchmark runs.
cargo build --release --offline --manifest-path fig3bench/Cargo.toml
cargo test --release --offline --manifest-path fig3bench/Cargo.toml

echo "== cargo test -q --release --offline scale_stress"
# The contention-sensitive suites (scale stress, per-resource lease
# races) only exercise real interleavings at release-mode speed.
cargo test -q --release --offline --test scale_stress
cargo test -q --release --offline --test concurrency

echo "== cargo test -q --release --offline wirepath"
# The wire-path suites pin byte-for-byte serializer equivalence, the
# per-transport render budgets, and the inbound parse/DOM budgets
# (zero body DOMs per WS-RP read); release mode keeps the proptest
# cases and the real-socket exchanges fast.
cargo test -q --release --offline --test wirepath
cargo test -q --release --offline --test wirepath_renders
cargo test -q --release --offline --test wirepath_inbound
cargo test -q --release --offline -p wsrf-xml --test proptest_roundtrip

echo "== cargo test -q --release --offline hostile_socket"
# Drip-fed and oversize-announcing peers against both socket servers
# and the HTTP client: cut off within the read timeout, no allocation
# beyond the bytes received.
cargo test -q --release --offline --test hostile_socket

echo "== cargo test -q --release --offline durability + failover_chaos"
# The durability suite replays proptest-corrupted WALs and the chaos
# suite kills the primary scheduler at every Figure 3 step; release
# mode keeps the 48-case corruption sweep and the ten kill-point
# recovery cycles fast.
cargo test -q --release --offline --test durability
cargo test -q --release --offline --test failover_chaos

echo "== cargo test -q --release --offline broker_fanout + E13 smoke"
# The broker suite races subscription lifecycle ops against concurrent
# publishes (release mode for real interleavings); the E13 smoke row
# drives the sharded fan-out open-loop at 1k subscriptions.
cargo test -q --release --offline --test broker_fanout
cargo run -q --release --offline -p bench --bin harness -- --e13-smoke >/dev/null

echo "== cargo test -q --release --offline monitoring_plane + monitor smoke"
# The monitoring-plane suite round-trips the exposition endpoints over
# real sockets and aggregates two authorities; the smoke run then boots
# a monitored container standalone and scrapes /metrics and /healthz.
cargo test -q --release --offline --test monitoring_plane
cargo run -q --release --offline -p bench --bin harness -- --monitor-smoke >/dev/null

echo "== metrics + tracing regression gate"
# The metrics-only harness run boots the dump grid with tracing enabled
# (the tracing ablation configuration), so BENCH_metrics.json carries
# the trace.* counters and the gate pins them against the baseline
# alongside every other metric.
cargo run -q --release --offline -p bench --bin harness -- --metrics-only >/dev/null
cargo run -q --release --offline -p bench --bin gate

echo "tier-1: OK"
