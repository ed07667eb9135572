//! Generated hostile job logs at the CSV trust boundary.
//!
//! Logs are structure-aware: either header (or a padded or truncated
//! one), rows of the header's width, one under or one over, and fields
//! drawn from valid, negative, huge, non-finite, empty, padded, non-ASCII,
//! `#`-garbled and non-UTF-8 values, with job ids and backends drawn from
//! small pools so duplicate ids and backends whose qubit count changes are
//! common. `read_trace` must never panic, and whatever it accepts must be
//! what the causality audit accepts, indexed consistently. Well-formed
//! records must round-trip field for field through `write_trace` →
//! `read_trace`.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::TestRng;
use qcs_cloud::audit::check_causality;
use qcs_cloud::{JobOutcome, JobRecord};
use qcs_workload::ingest::{read_trace, write_trace, TraceError, INGEST_HEADER};
use rand::Rng;

/// The 15-column header, as the writer prints it.
fn extended_header() -> String {
    let mut buffer = Vec::new();
    write_trace(&mut buffer, &[], &[], &[]).expect("write to a Vec");
    String::from_utf8(buffer)
        .expect("utf-8")
        .trim_end()
        .to_string()
}

/// What stands in a field instead of a valid value.
const HOSTILE: [&[u8]; 24] = [
    b"-1",
    b"-4.5",
    b"-0",
    b"4294967296",
    b"18446744073709551616",
    b"1e18",
    b"1e308",
    b"1e309",
    b"NaN",
    b"inf",
    b"-inf",
    b"",
    b" 7 ",
    b"\t1",
    "é".as_bytes(),
    "३".as_bytes(),
    "\u{3000}".as_bytes(),
    b"#0#4",
    b"1#2",
    b"\xff\xfe",
    b"true",
    b"yes",
    b"COMPLETED",
    b"0",
];

const BACKENDS: [&str; 3] = ["ibm_lagos", "ibm perth", "brisbane"];
const QUBITS: [usize; 3] = [7, 5, 27];
const STATUSES: [&str; 8] = [
    "COMPLETED",
    "done",
    "ERROR",
    "Failed",
    "CANCELLED",
    "cancelled",
    "RUNNING",
    "",
];

/// One row of `width` fields. A clean row is valid, with an id from a
/// large pool and its backend's one qubit count. Otherwise its status,
/// time order or duration rule may be broken, its id comes from a pool of
/// six, its qubit count from any backend's, and each field is replaced by
/// a hostile value with probability `hostility`.
fn row(rng: &mut TestRng, width: usize, clean: bool, hostility: f64) -> Vec<Vec<u8>> {
    let defect = if clean { 0 } else { rng.gen_range(0..6) };
    let status = match defect {
        1 => STATUSES[rng.gen_range(6..STATUSES.len())],
        _ => STATUSES[rng.gen_range(0..6)],
    };
    let submit = if rng.gen_bool(0.5) {
        1.7e9 + rng.gen_range(0.0..1e6)
    } else {
        rng.gen_range(0.0..2e5)
    };
    let start = match defect {
        2 => submit - rng.gen_range(0.001..10.0),
        _ => submit + [0.0, rng.gen_range(0.0..1e4)][rng.gen_range(0..2)],
    };
    let ran = start + rng.gen_range(0.001..1e3);
    let end = match (status.eq_ignore_ascii_case("cancelled"), defect == 3) {
        (true, false) | (false, true) => start,
        (false, false) | (true, true) => ran,
    };
    let backend = rng.gen_range(0..3);
    let qubits = if clean { backend } else { rng.gen_range(0..3) };
    let valid: [String; 15] = [
        format!("j{}", rng.gen_range(0..if clean { 1 << 30 } else { 6 })),
        BACKENDS[backend].to_string(),
        QUBITS[qubits].to_string(),
        rng.gen_range(0..1000u32).to_string(),
        rng.gen_range(0..u32::MAX).to_string(),
        rng.gen_range(0.0..100.0f64).to_string(),
        rng.gen_range(0.0..65.0f64).to_string(),
        submit.to_string(),
        start.to_string(),
        end.to_string(),
        status.to_string(),
        rng.gen_range(0..u32::MAX).to_string(),
        rng.gen_bool(0.5).to_string(),
        rng.gen_bool(0.5).to_string(),
        rng.gen_range(0..1usize << 40).to_string(),
    ];
    (0..width)
        .map(|i| match valid.get(i) {
            Some(value) if !rng.gen_bool(hostility) => value.clone().into_bytes(),
            _ => HOSTILE[rng.gen_range(0..HOSTILE.len())].to_vec(),
        })
        .collect()
}

/// One hostile log: a header, then up to eight rows with blank and
/// whitespace-only lines between them.
struct HostileLog;

impl Strategy for HostileLog {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let extended = extended_header();
        let (header, width) = match rng.gen_range(0..8) {
            0..=2 => (INGEST_HEADER.to_string(), 11),
            3..=5 => (extended, 15),
            6 => (format!(" {INGEST_HEADER}\t"), 11),
            _ => (extended[..rng.gen_range(0..extended.len())].to_string(), 15),
        };
        let clean = rng.gen_bool(0.4);
        let hostility = if clean {
            0.0
        } else {
            [0.0, 0.02, 0.2][rng.gen_range(0..3)]
        };
        let mut log = header.into_bytes();
        log.push(b'\n');
        for _ in 0..rng.gen_range(0..9) {
            match rng.gen_range(0..10) {
                0 => log.extend_from_slice(b"\n"),
                1 => log.extend_from_slice(b"  \t\n"),
                _ => {
                    let width = match (clean, rng.gen_range(0..10)) {
                        (false, 0) => width - 1,
                        (false, 1) => width + 1,
                        _ => width,
                    };
                    log.extend_from_slice(&row(rng, width, clean, hostility).join(&b','));
                    log.push(b'\n');
                }
            }
        }
        log
    }
}

/// Well-formed records as a simulated export has them: causal, the first
/// submission on day 0, unique ids, in any order.
struct WellFormed;

impl Strategy for WellFormed {
    type Value = Vec<JobRecord>;

    fn generate(&self, rng: &mut TestRng) -> Vec<JobRecord> {
        (0..rng.gen_range(0..12u64))
            .map(|i| {
                let outcome = [
                    JobOutcome::Completed,
                    JobOutcome::Errored,
                    JobOutcome::Cancelled,
                ][rng.gen_range(0..3)];
                let submit_s = if i == 0 {
                    rng.gen_range(0.0..86_400.0)
                } else {
                    rng.gen_range(0.0..3e7)
                };
                let start_s = submit_s + rng.gen_range(0.0..1e5);
                let end_s = match outcome {
                    JobOutcome::Cancelled => start_s,
                    _ => start_s + rng.gen_range(1e-3..1e4),
                };
                JobRecord {
                    id: i << 40 | rng.gen_range(0..1u64 << 40),
                    provider: rng.gen_range(0..u32::MAX),
                    machine: rng.gen_range(0..BACKENDS.len()),
                    circuits: rng.gen_range(0..u32::MAX),
                    shots: rng.gen_range(0..u32::MAX),
                    mean_width: rng.gen_range(0.0..127.0),
                    mean_depth: rng.gen_range(0.0..1e4),
                    is_study: rng.gen_bool(0.5),
                    submit_s,
                    start_s,
                    end_s,
                    outcome,
                    pending_at_submit: rng.gen_range(0..usize::MAX),
                    crossed_calibration: rng.gen_bool(0.5),
                }
            })
            .collect()
    }
}

/// A record's floats as bits: `==` would let `-0.0` pass for `0.0`.
fn float_bits(r: &JobRecord) -> [u64; 5] {
    [r.mean_width, r.mean_depth, r.submit_s, r.start_s, r.end_s].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Reading never panics; an error is typed, and an accepted log is
    /// causal by the audit's rule, indexed consistently, free of duplicate
    /// ids and in submission order.
    #[test]
    fn hostile_logs_read_typed_or_read_back(log in HostileLog) {
        match read_trace(log.as_slice()) {
            Err(TraceError::Parse { line, .. }) => prop_assert!(line >= 1),
            Err(TraceError::Io(error)) => {
                prop_assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
            }
            Ok(trace) => {
                prop_assert!(check_causality(&trace.records).is_empty());
                prop_assert_eq!(trace.job_ids.len(), trace.records.len());
                prop_assert_eq!(trace.machine_qubits.len(), trace.machines.len());
                prop_assert!(trace.records.iter().all(|r| r.machine < trace.machines.len()));
                prop_assert!(trace.records.windows(2).all(|w| w[0].submit_s <= w[1].submit_s));
                let mut ids = trace.job_ids.clone();
                ids.sort();
                ids.dedup();
                prop_assert_eq!(ids.len(), trace.job_ids.len());
            }
        }
    }

    /// `write_trace` → `read_trace` gives every record back, keyed by its
    /// id, equal in every field but `id` and the machine index, floats to
    /// the bit; the machine maps back by name.
    #[test]
    fn well_formed_records_round_trip(records in WellFormed) {
        let names: Vec<String> = BACKENDS.iter().map(|s| s.to_string()).collect();
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &records, &names, &QUBITS).expect("write to a Vec");
        let trace = read_trace(buffer.as_slice()).expect("well-formed records read back");
        prop_assert!(trace.extended);
        prop_assert_eq!(trace.records.len(), records.len());
        let by_id: HashMap<String, &JobRecord> =
            records.iter().map(|r| (r.id.to_string(), r)).collect();
        for (token, back) in trace.job_ids.iter().zip(&trace.records) {
            let original = by_id[token];
            prop_assert_eq!(&trace.machines[back.machine], &names[original.machine]);
            prop_assert_eq!(trace.machine_qubits[back.machine], QUBITS[original.machine]);
            let expected = JobRecord { id: back.id, machine: back.machine, ..original.clone() };
            prop_assert_eq!(back, &expected);
            prop_assert_eq!(float_bits(back), float_bits(original));
        }
    }
}
