#!/bin/sh
# Full offline CI gate: build, test, formatting, lints.
# Run from anywhere inside the repository; no network access required.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== perfbench build (benchmark package against the crates' public API) =="
# perfbench/ is a Cargo package of its own that calls only the crates'
# public functions; building it here makes a crate API change that
# breaks the benchmark fail this gate instead of the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test -q =="
cargo test -q --workspace

echo "== scheduler equivalence worker sweep (1, 2, host parallelism) =="
# The parallel policy must be byte-identical to the reference
# interleaving at *every* worker count, not just the suite's default of
# 2: one worker (pure fork overhead, no concurrency), two (the smallest
# real interleaving), and 0 = one per available host core.
for w in 1 2 0; do
    echo "-- FLASHSIM_EQ_WORKERS=$w --"
    FLASHSIM_EQ_WORKERS=$w cargo test -q --test sched_equivalence
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (broken or redundant doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== panic/unwrap/expect/unreachable + unsafe-concurrency gate (library crates) =="
# Library code must fail structurally (SimError), not panic: reject
# panic!/.unwrap()/.expect(/unreachable! outside #[cfg(test)] regions.
# The parallel scheduler also makes `static mut` and hand-asserted
# `unsafe impl Send/Sync` load-bearing hazards, so those are rejected
# outright — cross-thread sharing must go through the safe primitives.
# The bench crate (CLI tools), test modules, comments, and sites
# annotated `gate: allow` — same line or the comment line directly above
# (documented programming-error contracts) — are exempt.
violations=$(find crates -name '*.rs' -path '*/src/*' ! -path 'crates/bench/*' \
    -exec awk '
        FNR == 1 { intest = 0; skipnext = 0 }
        /#\[cfg\(test\)\]/ { intest = 1 }
        intest { next }
        { stripped = $0; sub(/^[ \t]+/, "", stripped) }
        stripped ~ /^\/\// { if ($0 ~ /gate: allow/) skipnext = 1; next }
        /gate: allow/ { next }
        skipnext { skipnext = 0; next }
        /panic!\(|\.unwrap\(\)|\.expect\(|unreachable!\(/ { print FILENAME ":" FNR ": " $0 }
        /static[ \t]+mut[ \t]|unsafe[ \t]+impl/ { print FILENAME ":" FNR ": " $0 }
    ' {} +)
if [ -n "$violations" ]; then
    echo "library code must return SimError instead of panicking, and must"
    echo "not smuggle shared mutable state past the compiler:"
    echo "$violations"
    exit 1
fi

echo "== simspeed perf gate (events/sec vs committed baseline) =="
# Best-of-N snbench throughput per platform — serial rows plus the
# parallel scheduling policy under 4 host workers — emitted as JSON,
# schema-validated, and compared against
# results/BENCH_simspeed_baseline.json: any row more than 30% below its
# baseline events/sec fails the gate. These configs leave telemetry
# compiled in but disabled, so the comparison also asserts the
# telemetry disabled path (one branch per probe site) has not regressed
# the hot loop; the parallel rows additionally gate the fork/join
# round machinery's overhead. Wall-clock numbers are host-dependent and
# noisy — on a loaded or much slower machine, skip with
# FLASHSIM_SKIP_PERF=1 (the benchmark still runs as a smoke test; only
# the comparison is skipped).
cargo build --release -q -p flashsim-bench --bin simspeed
perf_json="$(mktemp)"
if [ "${FLASHSIM_SKIP_PERF:-0}" = "1" ]; then
    ./target/release/simspeed --app snbench --iters 3 --workers 4 --json "$perf_json" > /dev/null
    ./target/release/simspeed --validate "$perf_json"
    echo "FLASHSIM_SKIP_PERF=1: baseline comparison skipped"
else
    ./target/release/simspeed --app snbench --iters 10 --workers 4 --json "$perf_json" \
        --baseline results/BENCH_simspeed_baseline.json --tolerance 0.30 > /dev/null
    ./target/release/simspeed --validate "$perf_json"
    echo "within 30% of committed baseline"
fi
rm -f "$perf_json"

echo "== hostprof gate (flashsim-hostprof-v1 schema + reconciliation + overhead) =="
# The host-time self-profiler must (a) emit schema-valid
# flashsim-hostprof-v1 JSONL — the binary self-validates the export
# through engine::hostprof::validate_jsonl before writing and exits
# nonzero on a bad report; (b) reconcile every per-phase table against
# the row's measured wall time within 1% (boundary tiling; a failed
# reconciliation prints `SKEW` instead of `reconciled`); and (c) cost
# at most 5% of throughput when attached: `--hostprof-overhead 0.05`
# interleaves detached/attached runs of the parallel policy pair by
# pair on every platform (so host frequency drift hits both sides
# equally) and compares best-of events/sec. The overhead half is
# wall-clock and host-dependent, so FLASHSIM_SKIP_PERF=1 skips it —
# the schema and reconciliation gates still run.
hp_out="$(mktemp)"
hp_jsonl="$(mktemp)"
./target/release/simspeed --app snbench --iters 1 --workers 2 \
    --hostprof --hostprof-jsonl "$hp_jsonl" > "$hp_out"
grep -q '"schema":"flashsim-hostprof-v1"' "$hp_jsonl" \
    || { echo "FAIL: hostprof export missing the v1 schema header"; exit 1; }
grep -q "reconciled" "$hp_out" \
    || { echo "FAIL: no reconciled hostprof table in simspeed output"; exit 1; }
if grep -q "SKEW" "$hp_out"; then
    echo "FAIL: hostprof phase sum does not reconcile with wall time:"
    grep "SKEW" "$hp_out"
    exit 1
fi
if [ "${FLASHSIM_SKIP_PERF:-0}" = "1" ]; then
    echo "schema + reconciliation ok; FLASHSIM_SKIP_PERF=1: overhead comparison skipped"
else
    ./target/release/simspeed --app snbench --iters 8 --workers 2 \
        --hostprof-overhead 0.05 > /dev/null
    echo "schema + reconciliation ok; hostprof overhead within 5% of detached"
fi
rm -f "$hp_out" "$hp_jsonl"

echo "== chaos smoke (fault-injection survival) =="
# 20 seeded fault plans x all platforms; exits nonzero if any cell
# panics or the sweep hangs past the watchdog.
cargo run --release -q -p flashsim-bench --bin chaos

echo "== kill-and-resume smoke (crash-consistent journal + ckpt schema) =="
# Runs a journaled multi-barrier matrix straight, re-runs it while
# hard-killing the process (exit 137, no destructors) at a seeded
# checkpoint count, resumes to convergence, and byte-compares every
# cell's artifacts against the straight run. Every flashsim-ckpt-v1
# file left on disk is then structurally re-validated through the
# standalone --validate-ckpt entry point (the same one external
# consumers get). Exits nonzero on any divergence or invalid file.
kr_dir="$(mktemp -d)"
cargo run --release -q -p flashsim-bench --bin chaos -- \
    --kill-resume --kills 1 --dir "$kr_dir" > /dev/null
cargo run --release -q -p flashsim-bench --bin chaos -- \
    --validate-ckpt "$kr_dir/killed" > /dev/null
echo "kill-and-resume converged byte-identically; checkpoints validate"

echo "== stream smoke (flashsim-stream-v1 validation + prefix stability) =="
# Every live stream the kill-resume matrix produced — the straight run's,
# the killed-then-resumed run's, and the torn mid-kill snapshots — must
# validate against the full stream contract, and files sharing a
# provenance hash must be prefix-stable over their deterministic events.
# A partial report must also stitch from a torn snapshot (the post-mortem
# view of a crashed cell); when no kill landed mid-cell this attempt, the
# report reads a finished stream instead.
stream_files="$(ls "$kr_dir"/straight/cell*.stream "$kr_dir"/killed/cell*.stream \
    "$kr_dir"/killed/cell*.stream.killed 2>/dev/null)"
[ -n "$stream_files" ] || { echo "FAIL: kill-resume matrix produced no stream files"; exit 1; }
# shellcheck disable=SC2086
cargo run --release -q -p flashsim-bench --bin watch -- --validate $stream_files
torn="$(ls "$kr_dir"/killed/cell*.stream.killed 2>/dev/null | head -n 1)"
[ -n "$torn" ] || torn="$kr_dir/straight/cell0.stream"
cargo run --release -q -p flashsim-bench --bin report -- --from-stream "$torn" > /dev/null
echo "streams validate, prefix-stable per provenance; partial report stitches from a torn tail"
rm -rf "$kr_dir"

echo "== profile smoke (cycle-accounting conservation) =="
# GoldenMachine + one simulator over FFT with the accounting profiler
# attached; the binary itself verifies conservation (per-node per-class
# sums equal total cycles on both platforms) and that the attribution's
# per-class contributions sum to the total relative error, exiting
# nonzero on any violation.
cargo run --release -q -p flashsim-bench --bin profile

echo "== report smoke (manifest + accounting + telemetry stitching) =="
# Unified run report over a 2-node FFT through the supervised matrix:
# the binary gates on accounting conservation, exact integer-ps
# telemetry conservation, and flashsim-telemetry-v1 schema validity,
# exiting nonzero on any violation. The JSONL export is then re-checked
# through the standalone --validate mode (the same entry point external
# consumers get).
report_jsonl="$(mktemp)"
report_spans="$(mktemp)"
cargo run --release -q -p flashsim-bench --bin report -- --nodes 2 \
    --jsonl "$report_jsonl" --spans-jsonl "$report_spans" > /dev/null
cargo run --release -q -p flashsim-bench --bin report -- --validate "$report_jsonl"

echo "== spans smoke (span diff + flashsim-span-v1 schema gate) =="
# Span diff over the hotspot drive: the binary gates on schema validity,
# exact charge tiling, sampler alignment across platforms, and the
# MAGIC-occupancy-leg signature (present on FlashLite, absent on NUMA),
# exiting nonzero on any violation. Both its export and the report's
# machine-layer export are re-checked through the standalone --validate
# mode (the same entry point external consumers get).
spans_jsonl="$(mktemp)"
cargo run --release -q -p flashsim-bench --bin spans -- \
    --jsonl-fl "$spans_jsonl" > /dev/null
cargo run --release -q -p flashsim-bench --bin spans -- --validate "$spans_jsonl"
cargo run --release -q -p flashsim-bench --bin spans -- --validate "$report_spans"
rm -f "$report_jsonl" "$report_spans" "$spans_jsonl"

echo "== all checks passed =="
