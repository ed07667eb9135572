#!/usr/bin/env bash
# Local CI gate: release build, full test suite, and zero-warning clippy.
# Run from the repository root before pushing.
set -euo pipefail

cargo build --release
# Every crate's unit, integration and doc tests, not just the root
# package's (the same set a bare `cargo test -q` runs, via
# default-members).
cargo test -q --workspace

# Gate map: what the line above ran, by the selector that re-runs one gate
# alone (`cargo test -q <selector>`) for a focused report.
#
# -p qcs-cloud; --test properties des_matches_reference; --test
#   end_to_end_study: the DES matches the O(n^2) brute-force reference
#   record-for-record under both record sinks (winner tree vs linear scan
#   before every pop, cancel/unschedule metamorphic test, random
#   step-schedule == batch), and the end-to-end study passes under the
#   auditor with Fig 8's smoke values pinned. The reference's traces carry
#   exact ties (SJF-equal ones included) and arrive shuffled.
# -p qcs-cloud windowed_feed_matches_submit_everything_then_drain;
#   submit_rejects (submit_rejects_out_of_order_arrivals,
#   submit_rejects_non_finite_submit_time,
#   submit_rejects_negative_or_nan_patience); -p qcs-workload
#   order_is_submit_then_id; --lib live_core_matches_batch_on_smoke_study:
#   `Simulation::run`'s windowed feed equals stable-sorting the trace,
#   submitting it all up front and draining, over more than two windows of
#   shuffled input with ties straddling every window edge and on the smoke
#   study; `LiveCloud::submit` refuses a job behind the clock or the last
#   pending arrival (arrivals are a FIFO; a tie is admitted and arrives
#   second), a non-finite submit time and a negative or NaN patience; the
#   generator emits jobs in strictly increasing (submit_s, id) order.
# -p qcs-sim isa_clones_match_bit_for_bit: the baseline and AVX2 clones of
#   the frame executor's flush and Mat1 passes produce the same bits on
#   the same random amplitudes, diagonals and Mat1 partners.
# -p qcs-sim optimized_path_matches_reference; --test properties
#   cdf_sampler_matches_linear_scan: the one shot path (CdfSampler +
#   readout thresholds, every shot recorded into Counts) equals the
#   reference run bit for bit, one trajectory x 2,048 shots included, and
#   CdfSampler equals Statevector::sample's linear scan draw for draw.
# --test properties live_matches_batch; --test gateway_smoke; -p
#   qcs-gateway: the incremental stepping engine is bit-identical to the
#   batch run on random traces/disciplines/outages/step schedules, and the
#   gateway loopback smoke test (8 concurrent clients, each on its own
#   session thread and all served at once, forced backpressure, graceful
#   drain) ends with a clean audit.
# -p qcs-gateway default_gateway_serves_more_sessions_than_cores;
#   connections_over_the_session_limit_are_refused_busy;
#   dribbling_peer_is_reaped_at_the_line_deadline: a default gateway
#   answers cores + 2 held-open clients, session 129 reads `BUSY
#   connection limit` then EOF and is admitted once another closes, and
#   bytes without a newline do not reset the per-line idle deadline.
# -p qcs-gateway fleet_sim_conserves_under_a_sampled_exact_sink: the
#   fleet conservation audit counts every executed record even when the
#   exact sink keeps one background record in five.
# --test chaos_gateway: every fault mode (drops, garbles, truncations,
#   slow-loris writes, handler panics, machine outages) against 6
#   concurrent clients, all served at once on a default-config gateway
#   (gateway_smoke's 8 likewise: not 4 + 4 behind a hand-set pool), every
#   panic caught on its own session thread and counted exactly, with a
#   clean audited drain and bit-identical fault-free replay.
# --test properties streaming: the O(1)-memory streaming sink matches the
#   exact in-memory fold on random traces under any step schedule
#   (count/mean bit-identical, sketches within documented tolerance).
# --test backends; -p qcs-sim stabilizer: the stabilizer backend reproduces
#   the dense noisy Counts bit-for-bit on random Clifford circuits, the
#   sparse statevector matches dense amplitudes and Counts bitwise, and
#   forcing any eligible backend is unobservable vs Auto dispatch (width 0
#   included). Past the dense engine's reach the backend's one tableau +
#   Pauli frame per trajectory matches its oracle, a tableau per
#   trajectory, on widths to 127 and through the k > 53 measurement
#   fallback, and the frame-shifted Support equals the noisy tableau's
#   field for field.
# --test ingest_study: the ARLIS-style CSV fixture parses with derived
#   backlogs, survives the study's causality audit, trains the online
#   predictor on the 70 % head and scores the tail with jobs, r and MAE
#   pinned, and reports no queue prediction when no head job completed.
# -p qcs-predictor queue; --test end_to_end_study
#   queue_prediction_smoke_values_are_pinned: held-out point waits are
#   the training split's per-machine means bit for bit, and
#   `extension_queue_prediction --smoke`'s split scores 28827 jobs with r
#   and MAE pinned to full precision and band coverage in [0.70, 0.80].
# -p qcs-predictor online: warm-started refits converge to the batch fit
#   (prediction-equivalent, not coefficient-equal: the product model is
#   scale-degenerate) at every cadence an owner may run them at, track a
#   drifting law when refitted only once per window turnover, and run from
#   a snapshot that later observes cannot disturb.

# Million-job bounded-memory gate: stream the full 10^6-job Zipf
# population trace through the 4-shard FleetSim. The binary asserts zero
# materialized records, a chunk-bounded arrival queue, fixed-capacity
# reservoirs, a clean cross-shard charged-vs-executed conservation audit,
# every job folded exactly once, at most one predictor refit per shard
# per step call, and peak RSS under 512 MiB.
cargo run --release -q -p qcs-bench --bin smoke_million_jobs

# Figure lane: every study-based figure binary must run to completion on
# the smoke study (no test executes a `main`, so a panic in one would
# otherwise reach main). Fig 7 takes no study: it is the one binary that
# drives the stabilizer backend, on the full fleet with `skipped == 0`
# asserted, in under a second.
for src in $(grep -l study_from_args crates/bench/src/bin/*.rs); do
    cargo run --release -q -p qcs-bench --bin "$(basename "$src" .rs)" -- --smoke >/dev/null
done
cargo run --release -q -p qcs-bench --bin fig07_fidelity_cx >/dev/null

# Standalone benchmark lane: benchmark/ is its own workspace, so no root
# cargo command compiles it. Build and unit-test it against the current
# public API, then run every workload once at smoke scale (each must
# report "correct": true against benchmark/golden.json with 0 failed).
cargo test --offline -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick
# --quick checks the quick config's digests only, and that config leaves
# out the routed 10q QFTs (13-15 qubit dense states, ~150 diagonal
# kernels and 20 Mat1s each). One full-size sim_fleet run (five units,
# ~6 s) exits non-zero unless every Counts histogram folds to
# golden.json's digest, so a frame-executor bug that only shows there
# cannot pass.
bash benchmark/run.sh --workload sim_fleet --seed 2021 --seconds 3 --trace 0

# Manifest gate: every Cargo.toml declares exactly the crates its sources
# use, so `cargo tree` is the architecture (DESIGN.md §2: the job trip
# never links the compiler or the simulator, the simulator never links the
# compiler). Own target dir so the flag does not invalidate the main
# build; qcs-bench is excluded because its binaries, not its lib, use its
# dependencies. grep without -q reads all of cargo's output (no SIGPIPE
# under pipefail) and prints the offending line.
RUSTFLAGS="-D unused-crate-dependencies" CARGO_TARGET_DIR=target/lint \
    cargo check --offline --workspace --exclude qcs-bench --lib
for edge in "qcs-gateway qcs-transpiler" "qcs-gateway qcs-circuit" \
    "qcs-sim qcs-transpiler" "qcs-sim qcs-machine" "qcs-cloud qcs-circuit"; do
    read -r crate forbidden <<<"$edge"
    if cargo tree --offline -p "$crate" -e normal | grep "$forbidden"; then
        echo "ci.sh: $crate must not depend on $forbidden" >&2
        exit 1
    fi
done

cargo clippy --all-targets -- -D warnings

# The simulation and transpilation hot paths carry the bit-reproducibility
# guarantees, and qcs-exec the fan-out every one of them runs on; keep
# their crates individually warning-clean (fail fast, focused report) on
# top of the workspace-wide gate above. `unsafe` needs no lane here: every
# crate root forbids it except qcs-sim, which denies it outside frame.rs.
cargo clippy -p qcs-sim --all-targets --no-deps -- -D warnings
cargo clippy -p qcs-transpiler --all-targets --no-deps -- -D warnings
cargo clippy -p qcs-exec --all-targets --no-deps -- -D warnings
cargo clippy -p qcs-workload --all-targets --no-deps -- -D warnings

# The serving crate must be panic-free on untrusted input: no unwrap or
# expect in non-test gateway code (--no-deps keeps the deny flags from
# leaking into dependency crates).
cargo clippy -p qcs-gateway --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# The online predictor sits on the same serving path (fed by the record
# tap, queried per PREDICT request): hold it to the same bar.
cargo clippy -p qcs-predictor --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# The DES core is the gateway's backing store and runs on its serving
# path (every SUBMIT steps the simulator under the state lock): no
# unwrap/expect in non-test cloud code either.
cargo clippy -p qcs-cloud --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "ci.sh: all checks passed"
