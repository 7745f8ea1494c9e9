#!/usr/bin/env sh
# CI gate for the CirSTAG workspace. Fully offline; fails on the first error.
# Takes no arguments. Performance is measured by perfbench (BENCHMARK.json),
# not here.
set -eu

if [ "$#" -gt 0 ]; then
    echo "ci.sh: takes no arguments (got '$*')" >&2
    exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (failpoints, all targets)"
cargo clippy --workspace --features failpoints --all-targets -- -D warnings

echo "==> rustdoc (warnings are errors: broken, private or ambiguous doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cirstag-lint (repo rules, waivers need reasons, committed report fresh)"
# The report is written to a scratch path and compared against the committed
# LINT_REPORT.json, so a stale snapshot fails CI instead of being silently
# rewritten by the gate itself.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
cargo run -q -p cirstag-lint -- --report "$CI_TMP/LINT_REPORT.json"
if ! cmp -s "$CI_TMP/LINT_REPORT.json" LINT_REPORT.json; then
    echo "ci.sh: LINT_REPORT.json is stale — regenerate with 'cargo run -p cirstag-lint' and commit it" >&2
    exit 1
fi

echo "==> release build"
cargo build --release

echo "==> test suite (every workspace member: unit tests, crates/*/tests, root tests)"
cargo test -q --workspace

echo "==> test suite (failpoints: fault injection)"
cargo test -q --features failpoints

echo "==> golden report digests in release"
# The test suite above checks the pinned digests in a debug build; the
# release build that the CLI, serve and perfbench run answers to the same
# digests, invariant audits included.
cargo test --release -q --test report_digest

echo "==> benchmark package (perfbench builds against the public API and passes its tests)"
# perfbench is a package of its own outside the workspace, so neither the
# clippy run nor the workspace tests above compile it; without this step a
# public-API break would first show up when the benchmark is run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> serve smoke test (daemon + 50-request load, zero dropped connections)"
SMOKE_DIR="$CI_TMP/smoke"
mkdir -p "$SMOKE_DIR"
./target/release/cirstag generate --gates 40 --seed 7 "$SMOKE_DIR/smoke.cir"
./target/release/cirstag serve --addr 127.0.0.1:0 --port-file "$SMOKE_DIR/port" &
SERVE_PID=$!
tries=0
while [ ! -s "$SMOKE_DIR/port" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: serve daemon never wrote its port file" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
# `load --shutdown` exits 0 only when every request was served (shed or
# timed-out requests degrade to exit 2; dropped connections fail with 1),
# then asks the daemon to drain and stop.
./target/release/cirstag load "$SMOKE_DIR/smoke.cir" \
    --addr "$(cat "$SMOKE_DIR/port")" --requests 50 --clients 8 \
    --epochs 10 --shutdown
wait "$SERVE_PID"

echo "==> incremental ECO smoke test (cirstag diff on a ~50k-pin design)"
# An ephemeral workspace: partitioned analyze writes the ECO manifest plus
# the segmented artifact cache, one edge rescale re-scores through `diff`
# (warm: only the dirty partition recomputes), and `diff --cold` recomputes
# every partition as the bit-identity reference. The warm report must match
# the cold one byte for byte and come back at least 5x faster on one core.
# Pins 2832--2833 are a generator-deterministic edge interior to one BFS
# region of this design (both endpoints two hops from any other partition);
# if the generator or partitioner ever changes shape, apply_delta rejects
# the missing edge or the recompute-count greps below fail loudly.
ECO_DIR="$CI_TMP/eco"
mkdir -p "$ECO_DIR"
./target/release/cirstag generate --gates 16000 --seed 9 "$ECO_DIR/base.cir"
./target/release/cirstag analyze "$ECO_DIR/base.cir" \
    --partitions 8 --threads 1 --epochs 6 --cache-dir "$ECO_DIR/ws"
cat >"$ECO_DIR/ops.json" <<'EOF'
{
  "schema": "cirstag-delta/v1",
  "ops": [{ "op": "rescale_edge", "u": 2832, "v": 2833, "factor": 1.3 }]
}
EOF
./target/release/cirstag diff --workspace "$ECO_DIR/ws" --delta "$ECO_DIR/ops.json" \
    --threads 1 --out "$ECO_DIR/warm.json" | tee "$ECO_DIR/warm.log"
./target/release/cirstag diff --workspace "$ECO_DIR/ws" --delta "$ECO_DIR/ops.json" \
    --threads 1 --cold --out "$ECO_DIR/cold.json" | tee "$ECO_DIR/cold.log"
if ! cmp -s "$ECO_DIR/warm.json" "$ECO_DIR/cold.json"; then
    echo "ci.sh: warm diff report is not bit-identical to the cold reference" >&2
    exit 1
fi
grep -q "^recomputed 1 of 8 partitions" "$ECO_DIR/warm.log" || {
    echo "ci.sh: warm diff did not recompute exactly the one dirty partition" >&2
    exit 1
}
grep -q "^recomputed 8 of 8 partitions" "$ECO_DIR/cold.log" || {
    echo "ci.sh: cold diff did not recompute every partition" >&2
    exit 1
}
WARM_MS=$(sed -n 's/^diff wall: \([0-9]*\) ms$/\1/p' "$ECO_DIR/warm.log")
COLD_MS=$(sed -n 's/^diff wall: \([0-9]*\) ms$/\1/p' "$ECO_DIR/cold.log")
echo "eco diff: warm ${WARM_MS}ms vs cold ${COLD_MS}ms"
awk -v warm="$WARM_MS" -v cold="$COLD_MS" 'BEGIN {
    if (warm == "" || cold == "") { print "ci.sh: missing diff wall lines"; exit 1 }
    if (warm * 5 > cold) {
        printf "ci.sh: warm diff (%sms) is not 5x faster than cold (%sms)\n", warm, cold
        exit 1
    }
}'

echo "CI OK"
