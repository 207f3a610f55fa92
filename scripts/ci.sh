#!/usr/bin/env bash
# CI gate: everything a PR must pass. Run locally before pushing.
#
# The build is fully offline — third-party deps are vendored under
# crates/*-compat as [workspace.dependencies] path entries — so this
# script needs no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (parallel-round scheduler, the default)"
cargo test -q --workspace

echo "==> cargo test -q (serial baton scheduler via ASCEND_SCHED)"
# The same suite must pass under both host scheduling disciplines;
# sched_equiv additionally proves their reports byte-identical.
ASCEND_SCHED=serial cargo test -q --workspace

echo "==> f16 conversions: exhaustive over all 2^32 f32 inputs (release)"
# The branch-free F16 conversions must match the independent f64 oracle
# on every f32 bit pattern, not only on the tier-1 sample.
cargo test --release -q --test f16_conversion -- --ignored

echo "==> perf report smoke: figures --json + trace"
# Both binaries self-validate their output with bench::validate_json
# before writing; CI additionally pins the stable schema keys.
cargo run --release -p bench --bin figures -- --json --quick
test -s BENCH_scan.json
for key in '"schema":"bench-scan/v5"' '"name":' '"cycles":' '"time_us":' \
    '"gbps":' '"traffic_gbps":' '"l2_traffic_gbps":' '"working_set":' \
    '"gelems":' '"fraction_of_peak":' \
    '"engines":' '"busy_cycles":' '"stall_dependency":' \
    '"stall_contention":' '"stall_barrier":' '"stall_flag":' \
    '"barrier_wait_cycles":' '"flag_wait_cycles":' \
    '"critical_path":' '"makespan":' '"lookback_chain_share":' \
    '"what_ifs":' '"name":"free_flags"' '"name":"zero_lookback"' \
    '"name":"ScanC(fp16)"' '"name":"ScanC(int8)"' '"traffic":' \
    '"scanc_lookback":' '"window":' '"chain_hops":' '"zero_lookback_speedup":' \
    '"host":' '"jobs":' '"host_seconds":' '"kernel_host_seconds":' \
    '"launches":' '"sim_cycles":' '"block_exec_seconds":' '"harvest_seconds":' \
    '"audit_seconds":' '"critpath_seconds":' '"sim_cycles_per_host_second":'; do
  grep -qF "$key" BENCH_scan.json \
    || { echo "BENCH_scan.json missing required key $key"; exit 1; }
done

echo "==> perf gate: decoupled ScanC must not trail MCScan at the 4M anchor"
# The tentpole claim: with the multi-hop look-back overlapped behind
# local work, ScanC wins on TIME (it always won on bytes) by the 4M
# crossover anchor, for both dtype paths. A 2% tolerance absorbs
# rounding in the fixed-point time_us formatting.
for dt in fp16 int8; do
  row=$(grep -o "{\"n\":4194304,\"dtype\":\"$dt\"[^}]*" BENCH_scan.json | head -1)
  test -n "$row" || { echo "BENCH_scan.json has no 4M $dt traffic row"; exit 1; }
  mc=$(echo "$row" | grep -o '"mcscan_time_us":[0-9.]*' | cut -d: -f2)
  sc=$(echo "$row" | grep -o '"scanc_time_us":[0-9.]*' | cut -d: -f2)
  awk -v sc="$sc" -v mc="$mc" 'BEGIN { exit !(sc+0 > 0 && mc+0 > 0 && sc <= mc * 1.02) }' \
    || { echo "perf regression: ScanC $sc us > MCScan $mc us at 4M $dt"; exit 1; }
  echo "    4M $dt: ScanC $sc us <= MCScan $mc us"
  # The look-back must be hidden, not merely cheap: removing it
  # entirely may predict at most a 1.15x speedup.
  zl=$(grep -o "{\"n\":4194304,\"dtype\":\"$dt\"[^]]*" BENCH_scan.json \
    | grep -o '"zero_lookback_speedup":[0-9.]*' | head -1 | cut -d: -f2)
  test -n "$zl" || { echo "BENCH_scan.json 4M $dt row lacks zero_lookback_speedup"; exit 1; }
  awk -v zl="$zl" 'BEGIN { exit !(zl <= 1.15) }' \
    || { echo "look-back not hidden: zero_lookback would still save ${zl}x at 4M $dt"; exit 1; }
  echo "    4M $dt: zero_lookback headroom ${zl}x <= 1.15x"
done

# The host section carries wall-clock times, the one legitimately
# run-dependent part of the document; every byte-stability comparison
# below blanks it first.
strip_host() { sed -E 's/"host":\{[^{}]*\}/"host":{}/' "$1"; }

echo "==> determinism gate: two figure runs must be byte-identical"
# The deterministic scheduler makes launches seed-independent; any
# drift between two back-to-back runs is a scheduler regression.
mv BENCH_scan.json BENCH_scan.first.json
cargo run --release -p bench --bin figures -- --json --quick
cmp <(strip_host BENCH_scan.first.json) <(strip_host BENCH_scan.json) \
  || { echo "BENCH_scan.json is not byte-stable across runs"; exit 1; }
rm -f BENCH_scan.first.json

echo "==> host-parallelism gate: --jobs 1 and --jobs $(nproc) must agree byte-for-byte"
# Simulated results may never depend on how many host threads ran the
# figure points; only the host section's wall-clock times may move.
mv BENCH_scan.json BENCH_scan.wide.json
cargo run --release -p bench --bin figures -- --json --quick --jobs 1
cmp <(strip_host BENCH_scan.json) <(strip_host BENCH_scan.wide.json) \
  || { echo "BENCH_scan.json differs between --jobs 1 and --jobs $(nproc)"; exit 1; }
rm -f BENCH_scan.wide.json

echo "==> oversubscribed smoke: grids larger than the host"
cargo test -q -p ascendc oversubscribed_launch_is_deterministic
cargo test -q --test determinism oversubscribed_scanc_is_reproducible_byte_for_byte

cargo run --release -p bench --bin trace -- mcscan 65536 mcscan_trace.json
test -s mcscan_trace.json
for key in '"traceEvents"' 'Phase I' 'Phase II' 'SyncAll' 'wait:dep' 'wait:barrier' 'wait:flag'; do
  grep -qF "$key" mcscan_trace.json \
    || { echo "mcscan_trace.json missing $key"; exit 1; }
done
rm -f mcscan_trace.json

echo "==> simlint + critpath gates: every shipped kernel's schedule must be clean"
# One trace file per kernel (concatenated launches would look
# concurrent to the analyzer). The traces live in a temp dir that is
# removed even when a gate fails, so a red run leaves no litter in the
# repo root.
lintdir=$(mktemp -d)
trap 'rm -rf "$lintdir"' EXIT
# One `trace` invocation traces all kernels concurrently (--jobs) and
# writes one file per kernel (--dir); the per-kernel JSON is
# byte-identical to what eight serial single-kernel runs would write.
cargo run --release -p bench --bin trace -- all 65536 --jobs "$(nproc)" --dir "$lintdir"
lint_traces=()
for k in scanu scanul1 mcscan scanc cumsum batched radix-encode radix-split; do
  test -s "$lintdir/$k.json" || { echo "trace --dir did not write $k.json"; exit 1; }
  lint_traces+=("$lintdir/$k.json")
done
# simlint exits nonzero on ANY diagnostic — races and sync gaps, but
# also leak/balance warnings; --json keeps a machine-readable record.
cargo run --release -p bench --bin simlint -- --json "${lint_traces[@]}" \
  > "$lintdir/simlint.json" \
  || { cat "$lintdir/simlint.json"; echo "simlint found schedule diagnostics"; exit 1; }
grep -qF '"diagnostics":' "$lintdir/simlint.json" \
  || { echo "simlint --json output missing diagnostics key"; exit 1; }
# critpath re-checks the makespan identity and what-if invariants on the
# serialized critical paths of the same traces.
cargo run --release -p bench --bin critpath -- --top 3 "${lint_traces[@]}" \
  || { echo "critpath found a critical-path invariant violation"; exit 1; }

echo "==> mcheck gate: exhaustive schedule-space check of every shipped kernel"
# The model checker explores every inequivalent interleaving of
# sync-visible operations on the tiny chip, proving deadlock-freedom,
# hb-cleanliness, and byte-identical reports across all commit orders.
# It prints explored/pruned state counts and exits 1 on any finding or
# budget exceedance. ScanC, MCScan and the fused radix-sort pass must
# additionally reach 100% dual (blocked AND non-blocking) wait coverage.
cargo run --release -p bench --bin mcheck -- all \
  || { echo "mcheck found a schedule-space violation"; exit 1; }
cargo run --release -p bench --bin mcheck -- --strict-coverage mcscan scanc scanc-mh scanc-excl radix-split \
  || { echo "mcheck: mcscan/scanc/radix-split missed full sync coverage"; exit 1; }

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI green."
