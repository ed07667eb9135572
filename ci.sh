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
# -p qcs-sim packed_streams_from_zero_match_the_oracle;
#   the_read_is_in_ascending_order_under_a_permuting_frame;
#   compressed_table_resolves_every_draw_as_the_full_one;
#   pauli_word_kernels_are_the_decoded_gates; support::; --test
#   properties noisy_routed_circuits_match_reference: a dense trajectory
#   stores only its support, 2^k amplitudes for k the rank of its Mat1
#   directions. From |0...0> the read equals the oracle fold under any
#   final frame (probabilities and on-support amplitudes to the bit,
#   zeros off it); the compressed sampling table resolves every draw as
#   the full one, a draw past the total to 2^n - 1; an injected Y replays
#   as a diagonal and an X with the decoded gate's probabilities; ranks
#   enumerate an affine span in ascending order; and Counts of
#   routed-style circuits (CX/SWAP ladders over <= 14 wires, Mat1s on <= 6
#   of them) equal run_reference at 1, 3 and 128 trajectories.
# --test compiler_pin; -p qcs-transpiler optimize_iterates_rounds: the
#   compiler's whole output (instruction stream with angle bits, layout,
#   SWAP count, output metrics, schedule bits) for every fleet machine x
#   {qft 4/8/12, full-width ghz, qv 8, bv 10, hea 6} x four option sets,
#   plus multiprogramming packs on toronto and manhattan, folds to one
#   pinned digest; a layout, routing or peephole change that moves any
#   compiled circuit fails it. optimize runs rounds to a fixed point.
# -p qcs-transpiler --test allocations; -p qcs-circuit
#   an_instruction_is_a_56_byte_value: parsing qft(12)'s QASM, remapping
#   it and translating it to the basis allocate per circuit (a budget
#   logarithmic in its gate count, under a counting global allocator), not
#   per gate; an Instruction is 56 bytes with its operands inline.
# -p qcs-transpiler one_walk_key_matches_the_two_pass_digest: the
#   one-walk TranspileKey equals the two-pass digest (one walk per seeded
#   lane) on every compiler_pin circuit x fleet machine x option set, and
#   the keys fold to their pinned values.
# -p qcs-circuit --test hostile_qasm: generated OpenQASM programs (arity
#   and parameter count +-1, huge, negative and past-u32 indices,
#   non-finite parameters, barriers of 1..n operands, bad measure targets,
#   truncated and garbled lines) never panic from_qasm, get a typed error
#   or round-trip through to_qasm instruction for instruction; well-formed
#   circuits, wide barriers included, round-trip with their depth.
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
#   reaped_at_the_line_deadline: a default gateway answers cores + 2
#   held-open clients, session 129 reads `BUSY connection limit` then EOF
#   and is admitted once another closes, and bytes without a newline do
#   not reset the per-line idle deadline, at one byte per idle / 3 or per
#   20 ms (faster than the 100 ms read poll): both are reaped in
#   [idle, 2 x idle).
# -p qcs-gateway line_reader_frames_crlf_pipelined_and_capped_lines: the
#   line reader strips `\r\n`, splits two lines sent in one segment, parses
#   a line of exactly max_line_bytes and answers one byte more with
#   LINE_TOO_LONG then EOF.
# -p qcs-gateway fleet_sim_conserves_under_a_sampled_exact_sink: the
#   fleet conservation audit counts every executed record even when the
#   exact sink keeps one background record in five.
# --test chaos_gateway: a seeded proxy's four wire faults (drops,
#   garbles, truncations, slow-loris writes) against 6 concurrent clients
#   on one gateway, plus machine outages, each fault predicted and counted
#   exactly, no handler panic, a clean audited drain and bit-identical
#   fault-free replay.
# -p qcs --lib fault::tests: the proxy's roll (tests/support/wire_fault.rs)
#   is pure in (seed, line), seed-dependent and partitioned; garble breaks
#   the verb.
# -p qcs-gateway handler_panics_are_contained_to_their_session: three
#   sessions panic mid-request (a test-build trigger line) while another
#   keeps its replies; each panic is caught and counted, the drain audits
#   clean.
# -p qcs-gateway --test hostile_lines: generated lines (grammar verbs or
#   garbage, arity +-1, hostile fields) never panic Request::parse,
#   round-trip when they parse, and get typed replies from a live gateway
#   with no handler panic and a clean audit.
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
# --test trace_roundtrip: the smoke study written by write_trace reads
#   back record for record (floats to the bit, machines by name), and
#   Study::from_trace on it gives the simulated study's order-free
#   figures (2a, 2b, 3, 4, 8, 10, 11, 12a, 13) bit for bit.
# --test ingest_study: the ARLIS-style CSV fixture parses with derived
#   backlogs, re-based to its UTC midnight; Study::from_trace on it
#   audits clean, trains the online predictor on the 70 % head and scores
#   the tail with jobs, r and MAE pinned, reports no queue prediction
#   when no head job completed and no Fig 9 or Fig 12a; a COMPLETED row
#   that never ran and a CANCELLED row that ran are refused.
# -p qcs-workload --test hostile_trace: generated job logs (either header
#   or a padded or truncated one, arity +-1, negative, huge, non-finite,
#   empty, non-ASCII and non-UTF-8 fields, duplicate ids, backends whose
#   qubit count changes, blank lines) never panic read_trace, which
#   accepts only what the causality audit accepts; well-formed records
#   round-trip field for field through write_trace -> read_trace.
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
# -p qcs-workload stream_equals_the_materialising_oracle;
#   hour_batches_hold_back_a_job_at_the_hour_end; skip_twins; -p rand
#   every_draw_takes_exactly_one_word: the streamed trace equals the old
#   materialise-and-sort generator job for job over days x impatience x
#   demand x growth x study jobs; an hour batch holds back a job at
#   exactly the hour's end for the next batch, where a later hour's job
#   of lower id ties it; each skip twin consumes the words its sampler
#   draws, and every gen_range/gen takes one word.
# -p qcs-workload emitting_stream_panics_where_it_leaves_the_sizing_pass:
#   a machine whose generator state after its last hour differs from the
#   sizing pass's next snapshot panics naming the machine.
# -p qcs-workload zipf_table_draws_what_the_per_draw_walk_draws: the
#   provider table returns the per-draw harmonic walk's id and leaves the
#   same generator state on 10^6 draws each at 2, 3, 40, 41 providers.
# -p qcs-calibration lognormal_type_is_the_inline_formula: LogNormal's
#   hoisted constants give the inline formula's bits and words.
# -p qcs-cloud cursor_lookup_is_the_linear_find: down_until_from with a
#   cursor agrees with a linear find on overlapping and touching windows
#   at nondecreasing times that hit starts and ends and repeat.
# -p qcs-cloud with_outages_resets_the_window_cursors;
#   only_sjf_evaluates_the_service_estimate: a new outage plan restarts
#   every machine's cursor; fair-share and FIFO queues never call the
#   service-estimate closure, SJF does.
# -p proptest --test replay: PROPTEST_CASE=k runs case k alone on the
#   inputs the full run gave it, and a failure names the property, its
#   seed and the case.
# --test trace_memory: a 30-day Study::run grows the process's peak RSS
#   by under half the trace's total_jobs x size_of::<JobSpec>() (one test
#   in its binary, so VmHWM is its own).
# -p qcs-stats summary_of_runs; -p qcs-cloud
#   a_stale_patience_check_does_not_drive_the_clock: Summary::of_runs is
#   Summary::of on the expanded sample bit for bit (ties, signed zeros,
#   infinities, NaN runs, zero counts, single runs); a patience check for
#   a dispatched or finished job never moves the clock or the sample grid.
# -p qcs-cloud agenda_lanes_match_single_heap_oracle: the three-lane event
#   agenda (service heap, patience-check FIFO, late-check heap) pops the
#   same (time, kind) sequence as the single heap it replaced, kept as a
#   test oracle, under random pushes with in-order, tied and out-of-order
#   deadlines and cross-lane time ties; a FIFO that takes a key below its
#   back or a merge that prefers the service lane on a time tie fails it.
# -p qcs-cloud fairshare_tree_matches_scan_oracle: the winner tree's
#   integer ranks pick what the float (key, front submit, index) scan
#   picks, with -inf keys, equal keys over equal fronts and injections
#   rekeying through update_path; a tree that lets the right child win a
#   full tie fails it.
# -p qcs-workload study_shapes_equal_the_built_circuits: the study job's
#   per-width shape table for the seed-free families (and the per-job
#   build for bv and rand) equals by_family(..).depth() / num_qubits() for
#   every family x width 1..=32 x 128 seeds; a family wrongly marked
#   seed-free fails it.
# -p qcs-circuit duplicate_operand_rejected_at_any_width;
#   repeated_operand_is_invalid_at_any_width: try_push and from_qasm refuse
#   a repeated qubit in an instruction of any width (`barrier
#   q[0],q[0],q[1];`) with DuplicateOperand, naming the first repeat.
# -p qcs-stats lm_kernel; fit_flat_skipping_rebuilds: the const-width LM
#   kernel gives the dynamic-k oracle loop's coefficient bits and rejected
#   steps at every k in 1..=8, warm, cold and far-off inits, 1 to 200
#   iterations, and its bits fold to the value pinned from that loop.
# -p qcs-stats overflowing_normal_equations_reject_the_step;
#   solver_refuses_non_finite_pivots; fit_flat_refuses_more_than_eight:
#   an overflowing LM step is rejected (a non-finite pivot is singular),
#   not a panic; fit_flat panics past 8 features with its documented text.
# -p qcs-calibration cycle_cast_is_the_floor; -p qcs-cloud
#   day_bin_cast_is_the_floor: the calibration cycle and the day bin cast
#   where they called floor, equal for NaN, +-0, +-inf, subnormals,
#   negatives and values at and just below integers.

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
# out the routed 10q QFTs (13–15 qubit circuits stored at 2^10, ~150 diagonal
# kernels and 20 Mat1s each). One full-size sim_fleet run (five units,
# ~6 s) exits non-zero unless every Counts histogram folds to
# golden.json's digest, so a frame-executor bug that only shows there
# cannot pass.
bash benchmark/run.sh --workload sim_fleet --seed 2021 --seconds 3 --trace 0
# Likewise the compiler: --quick compiles one calibration epoch, the full
# compile_fleet config all 16, and exits non-zero unless its digest is
# golden.json's 771e3308110a00e2.
bash benchmark/run.sh --workload compile_fleet --seed 2021 --seconds 3 --trace 0

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

# The predictor's fits (the refit after every gateway reply and FleetSim
# step, the batch Figs 15-16 fit) run qcs-stats' Levenberg-Marquardt
# kernel: no unwrap/expect in its non-test code either.
cargo clippy -p qcs-stats --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "ci.sh: all checks passed"
