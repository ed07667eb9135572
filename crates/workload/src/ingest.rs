//! The job-log format: read and write CSV job logs as [`JobRecord`]s.
//!
//! The paper's analyses run over IBM Quantum job logs; this is the one
//! format in which the repo's study exports its records and in which it
//! reads *real* exported logs (ARLIS-style) back, so the same figures run
//! over either. One job per row:
//!
//! ```text
//! job_id,backend,qubits,circuits,shots,depth,width,submit_ts,start_ts,end_ts,status
//! ```
//!
//! optionally followed by four trailing columns, which
//! [`write_trace`] always writes:
//!
//! ```text
//! provider,is_study,crossed_calibration,pending_at_submit
//! ```
//!
//! - `job_id` — unique opaque token (kept in [`IngestedTrace::job_ids`];
//!   records get sequential ids in submission order). The writer puts the
//!   record id here.
//! - `backend` — machine name; machines are indexed in first-appearance
//!   order and their qubit counts collected into
//!   [`IngestedTrace::machine_qubits`].
//! - `submit_ts`/`start_ts`/`end_ts` — absolute timestamps in seconds
//!   (e.g. epoch), re-based to the UTC midnight at or before the earliest
//!   submission, so day bins are calendar days. That is `t0 = 0` for a
//!   simulated trace, and exact (Sterbenz) for an epoch log in
//!   `[t0, 2·t0]`: durations keep their bits.
//! - `status` — `COMPLETED`/`DONE`, `ERROR`/`FAILED`, or `CANCELLED`
//!   (case-insensitive).
//!
//! Without the trailing columns every job is a study job of provider 0
//! that crossed no calibration, and `pending_at_submit` is re-derived
//! from the timestamps (jobs submitted earlier and still unfinished at
//! this job's submission, per machine), which is what the queue-wait
//! predictor trains on.
//!
//! Every malformed field is a typed [`TraceError::Parse`] with a 1-based
//! line number.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, Write};
use std::str::FromStr;

use qcs_cloud::{JobOutcome, JobRecord};

/// The schema's 11 leading columns (line 1 of a log without the trailing
/// columns).
pub const INGEST_HEADER: &str =
    "job_id,backend,qubits,circuits,shots,depth,width,submit_ts,start_ts,end_ts,status";

/// The optional trailing columns, appended to [`INGEST_HEADER`].
const TRAILING_COLUMNS: &str = ",provider,is_study,crossed_calibration,pending_at_submit";

/// Errors from reading or writing a job log.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number (the header is line 1).
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// An ingested job log, ready for the Study/audit/predictor pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestedTrace {
    /// Records in submission order, re-based to the midnight at or before
    /// the earliest submission. `machine` indexes
    /// [`machines`](IngestedTrace::machines).
    pub records: Vec<JobRecord>,
    /// Backend names in first-appearance order.
    pub machines: Vec<String>,
    /// Qubit count per machine, aligned with
    /// [`machines`](IngestedTrace::machines) — the shape the runtime
    /// predictor's feature extraction expects.
    pub machine_qubits: Vec<usize>,
    /// Original `job_id` tokens, aligned with
    /// [`records`](IngestedTrace::records).
    pub job_ids: Vec<String>,
    /// Whether the log had the four trailing columns. Without them the
    /// records' `provider`, `is_study` and `crossed_calibration` are
    /// defaults, not data.
    pub extended: bool,
}

/// One parsed row before indexing/derivation: its record still has the
/// row's own timestamps, and id and machine 0.
struct Row {
    job_id: String,
    backend: String,
    qubits: usize,
    record: JobRecord,
    /// `None` when the column is absent: re-derived from the timestamps.
    pending_at_submit: Option<usize>,
}

/// Write records as a job log with all 15 columns. `job_id` is the
/// record's id; `backend` and `qubits` are `machines[r.machine]` and
/// `machine_qubits[r.machine]`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
///
/// # Panics
///
/// Panics if a record's machine index is outside `machines` or
/// `machine_qubits`.
pub fn write_trace<W: Write>(
    mut writer: W,
    records: &[JobRecord],
    machines: &[String],
    machine_qubits: &[usize],
) -> Result<(), TraceError> {
    writeln!(writer, "{INGEST_HEADER}{TRAILING_COLUMNS}")?;
    for r in records {
        let status = match r.outcome {
            JobOutcome::Completed => "COMPLETED",
            JobOutcome::Errored => "ERROR",
            JobOutcome::Cancelled => "CANCELLED",
        };
        writeln!(
            writer,
            "{},{},{},{},{},{},{},{},{},{},{status},{},{},{},{}",
            r.id,
            machines[r.machine],
            machine_qubits[r.machine],
            r.circuits,
            r.shots,
            r.mean_depth,
            r.mean_width,
            r.submit_s,
            r.start_s,
            r.end_s,
            r.provider,
            r.is_study,
            r.crossed_calibration,
            r.pending_at_submit
        )?;
    }
    writer.flush()?;
    Ok(())
}

/// Read a job log (see the module docs for the schema), with or without
/// the trailing columns.
///
/// # Errors
///
/// [`TraceError::Io`] on read failure; [`TraceError::Parse`] on a
/// missing/odd header, a malformed field, duplicate `job_id`s,
/// timestamps that break [`JobOutcome::CAUSALITY_RULE`] (before or after
/// re-basing), or a backend whose qubit count changes between rows.
pub fn read_trace<R: BufRead>(reader: R) -> Result<IngestedTrace, TraceError> {
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines.next().ok_or(TraceError::Parse {
        line: 1,
        message: "empty trace".to_string(),
    })?;
    let header = header?;
    let extended = match header.trim().strip_prefix(INGEST_HEADER) {
        Some("") => false,
        Some(TRAILING_COLUMNS) => true,
        _ => {
            return Err(TraceError::Parse {
                line: 1,
                message: format!("unexpected header: {header}"),
            })
        }
    };

    let mut rows: Vec<(usize, Row)> = Vec::new();
    for (idx, line) in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        rows.push((idx + 1, parse_row(&line, idx + 1, extended)?));
    }

    let mut seen_ids: HashMap<String, usize> = HashMap::new();
    for (lineno, row) in &rows {
        if let Some(first) = seen_ids.insert(row.job_id.clone(), *lineno) {
            return Err(TraceError::Parse {
                line: *lineno,
                message: format!(
                    "duplicate job_id {:?} (first seen on line {first})",
                    row.job_id
                ),
            });
        }
    }

    // Index backends in first-appearance order, with a consistent qubit
    // count per backend.
    let mut machines: Vec<String> = Vec::new();
    let mut machine_qubits: Vec<usize> = Vec::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for (lineno, row) in &rows {
        match index_of.get(&row.backend) {
            Some(&index) => {
                if machine_qubits[index] != row.qubits {
                    return Err(TraceError::Parse {
                        line: *lineno,
                        message: format!(
                            "backend {:?} reported {} qubits but earlier rows said {}",
                            row.backend, row.qubits, machine_qubits[index]
                        ),
                    });
                }
            }
            None => {
                index_of.insert(row.backend.clone(), machines.len());
                machines.push(row.backend.clone());
                machine_qubits.push(row.qubits);
            }
        }
    }

    // Re-base onto the midnight at or before the first submission and,
    // without the column, derive the backlog each job saw at submission:
    // per machine, earlier-submitted jobs whose end time is still in the
    // future.
    let first = rows
        .iter()
        .map(|(_, r)| r.record.submit_s)
        .fold(f64::INFINITY, f64::min);
    let t0 = (first / 86_400.0).floor() * 86_400.0;
    rows.sort_by(|(_, a), (_, b)| a.record.submit_s.total_cmp(&b.record.submit_s));
    let mut in_flight: Vec<BinaryHeap<Reverse<OrderedEnd>>> =
        (0..machines.len()).map(|_| BinaryHeap::new()).collect();
    let mut records = Vec::with_capacity(rows.len());
    let mut job_ids = Vec::with_capacity(rows.len());
    for (id, (lineno, row)) in rows.into_iter().enumerate() {
        let r = row.record;
        let machine = index_of[&row.backend];
        let pending_at_submit = row.pending_at_submit.unwrap_or_else(|| {
            let heap = &mut in_flight[machine];
            while heap
                .peek()
                .is_some_and(|Reverse(OrderedEnd(end))| *end <= r.submit_s)
            {
                heap.pop();
            }
            let pending = heap.len();
            heap.push(Reverse(OrderedEnd(r.end_s)));
            pending
        });
        let (submit_s, start_s, end_s) = (r.submit_s - t0, r.start_s - t0, r.end_s - t0);
        if !r.outcome.is_causal(submit_s, start_s, end_s) {
            return Err(TraceError::Parse {
                line: lineno,
                message: format!(
                    "timestamps re-based to {t0} violate {}: {submit_s},{start_s},{end_s}",
                    JobOutcome::CAUSALITY_RULE
                ),
            });
        }
        records.push(JobRecord {
            id: id as u64,
            machine,
            submit_s,
            start_s,
            end_s,
            pending_at_submit,
            ..r
        });
        job_ids.push(row.job_id);
    }

    Ok(IngestedTrace {
        records,
        machines,
        machine_qubits,
        job_ids,
        extended,
    })
}

/// `f64` end-time ordered for the min-heap; timestamps are validated
/// finite before construction, so total ordering is safe.
#[derive(PartialEq)]
struct OrderedEnd(f64);

impl Eq for OrderedEnd {}

impl PartialOrd for OrderedEnd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedEnd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Field `i` of a row, parsed, or an error naming it.
fn field<T: FromStr>(fields: &[&str], i: usize, name: &str, line: usize) -> Result<T, TraceError> {
    fields[i].parse().map_err(|_| TraceError::Parse {
        line,
        message: format!("bad {name}: {}", fields[i]),
    })
}

fn parse_row(line: &str, lineno: usize, extended: bool) -> Result<Row, TraceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    let expected = if extended { 15 } else { 11 };
    if fields.len() != expected {
        return Err(TraceError::Parse {
            line: lineno,
            message: format!("expected {expected} fields, got {}", fields.len()),
        });
    }
    let err = |message: String| TraceError::Parse {
        line: lineno,
        message,
    };
    let parse_ts = |i: usize, name: &str| -> Result<f64, TraceError> {
        let value: f64 = field(&fields, i, name, lineno)?;
        if !value.is_finite() {
            return Err(err(format!("non-finite {name}: {}", fields[i])));
        }
        Ok(value)
    };

    let job_id = fields[0].to_string();
    if job_id.is_empty() {
        return Err(err("empty job_id".to_string()));
    }
    let backend = fields[1].to_string();
    if backend.is_empty() {
        return Err(err("empty backend".to_string()));
    }
    let qubits: usize = field(&fields, 2, "qubits", lineno)?;
    if qubits == 0 {
        return Err(err("qubits must be >= 1".to_string()));
    }
    let circuits = field(&fields, 3, "circuits", lineno)?;
    let shots = field(&fields, 4, "shots", lineno)?;
    let depth = parse_ts(5, "depth")?;
    let width = parse_ts(6, "width")?;
    if depth < 0.0 || width < 0.0 {
        return Err(err(format!("negative depth/width: {depth},{width}")));
    }
    let submit = parse_ts(7, "submit_ts")?;
    let start = parse_ts(8, "start_ts")?;
    let end = parse_ts(9, "end_ts")?;
    let outcome = match fields[10].to_ascii_uppercase().as_str() {
        "COMPLETED" | "DONE" => JobOutcome::Completed,
        "ERROR" | "FAILED" => JobOutcome::Errored,
        "CANCELLED" => JobOutcome::Cancelled,
        other => return Err(err(format!("unknown status: {other}"))),
    };
    if !outcome.is_causal(submit, start, end) {
        return Err(err(format!(
            "timestamps violate {}: {submit},{start},{end}",
            JobOutcome::CAUSALITY_RULE
        )));
    }
    let (provider, is_study, crossed_calibration, pending_at_submit) = if extended {
        (
            field(&fields, 11, "provider", lineno)?,
            field(&fields, 12, "is_study", lineno)?,
            field(&fields, 13, "crossed_calibration", lineno)?,
            Some(field(&fields, 14, "pending_at_submit", lineno)?),
        )
    } else {
        (0, true, false, None)
    };
    let record = JobRecord {
        id: 0,
        provider,
        machine: 0,
        circuits,
        shots,
        mean_width: width,
        mean_depth: depth,
        is_study,
        submit_s: submit,
        start_s: start,
        end_s: end,
        outcome,
        pending_at_submit: 0,
        crossed_calibration,
    };
    Ok(Row {
        job_id,
        backend,
        qubits,
        record,
        pending_at_submit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csv() -> String {
        let mut text = format!("{INGEST_HEADER}\n");
        // Three jobs on two backends; the third submits while the first
        // two are still in flight on lagos.
        text.push_str("j-a,ibm_lagos,7,10,1024,20,3,1000,1040,1100,COMPLETED\n");
        text.push_str("j-b,ibm_lagos,7,5,512,12,2,1010,1100,1160,DONE\n");
        text.push_str("j-c,ibm_perth,7,2,256,8,2,1020,1021,1025,failed\n");
        text.push_str("j-d,ibm_lagos,7,1,128,4,1,1050,1160,1160,CANCELLED\n");
        text
    }

    #[test]
    fn parses_rebase_and_backlog() {
        let trace = read_trace(sample_csv().as_bytes()).unwrap();
        assert_eq!(trace.machines, vec!["ibm_lagos", "ibm_perth"]);
        assert_eq!(trace.machine_qubits, vec![7, 7]);
        assert_eq!(trace.job_ids, vec!["j-a", "j-b", "j-c", "j-d"]);
        let records = &trace.records;
        assert_eq!(records.len(), 4);
        // Re-based to the midnight before the earliest submit (t = 0 here:
        // the log starts on day 0), order preserved.
        assert_eq!(records[0].submit_s, 1000.0);
        assert_eq!(records[1].submit_s, 1010.0);
        assert_eq!(records[0].end_s, 1100.0);
        // Backlog derivation: j-a saw an empty lagos, j-b one in-flight
        // job, j-d two (j-a ends at 1100 > 1050, j-b at 1160 > 1050).
        assert_eq!(records[0].pending_at_submit, 0);
        assert_eq!(records[1].pending_at_submit, 1);
        assert_eq!(records[2].pending_at_submit, 0, "perth is its own queue");
        assert_eq!(records[3].pending_at_submit, 2);
        assert_eq!(records[2].outcome, JobOutcome::Errored);
        assert_eq!(records[3].outcome, JobOutcome::Cancelled);
        // Causality survives re-basing.
        for r in records {
            assert!(r.submit_s <= r.start_s && r.start_s <= r.end_s);
        }
    }

    #[test]
    fn rejects_bad_header_and_arity() {
        let err = read_trace("job,backend\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
        let text = format!("{INGEST_HEADER}\nj-a,lagos,7\n");
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 11 fields, got 3"));
    }

    #[test]
    fn rejects_each_malformed_field_with_line_number() {
        let valid = "j-a,lagos,7,10,1024,20,3,1000,1040,1100,COMPLETED";
        for (index, needle) in [
            (2, "bad qubits"),
            (3, "bad circuits"),
            (4, "bad shots"),
            (5, "bad depth"),
            (6, "bad width"),
            (7, "bad submit_ts"),
            (8, "bad start_ts"),
            (9, "bad end_ts"),
            (10, "unknown status"),
        ] {
            let mut fields: Vec<String> =
                valid.split(',').map(str::to_string).collect();
            fields[index] = "bogus".to_string();
            let text = format!("{INGEST_HEADER}\n{}\n", fields.join(","));
            let err = read_trace(text.as_bytes()).unwrap_err();
            assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
            assert!(err.to_string().contains(needle), "field {index}: {err}");
        }
    }

    #[test]
    fn rejects_causality_violations_and_duplicates() {
        // start before submit.
        let text = format!("{INGEST_HEADER}\nj-a,lagos,7,1,1,1,1,1000,990,1100,DONE\n");
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("submit <= start <= end"), "{err}");
        // Duplicate job ids.
        let text = format!(
            "{INGEST_HEADER}\n\
             j-a,lagos,7,1,1,1,1,1000,1001,1002,DONE\n\
             j-a,lagos,7,1,1,1,1,1003,1004,1005,DONE\n"
        );
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("duplicate job_id"), "{err}");
        // A backend that changes qubit count mid-trace.
        let text = format!(
            "{INGEST_HEADER}\n\
             j-a,lagos,7,1,1,1,1,1000,1001,1002,DONE\n\
             j-b,lagos,27,1,1,1,1,1003,1004,1005,DONE\n"
        );
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("qubits"), "{err}");
    }

    #[test]
    fn empty_body_is_ok_and_blank_lines_skip() {
        let trace = read_trace(format!("{INGEST_HEADER}\n").as_bytes()).unwrap();
        assert!(trace.records.is_empty() && trace.machines.is_empty());
        let text = format!("{INGEST_HEADER}\n\nj-a,lagos,7,1,1,1,1,0,1,2,DONE\n\n");
        assert_eq!(read_trace(text.as_bytes()).unwrap().records.len(), 1);
    }

    #[test]
    fn rebases_to_the_midnight_before_the_first_submission() {
        // 1_700_000_000 s is 80,000 s past a UTC midnight.
        let text = format!(
            "{INGEST_HEADER}\n\
             j-a,lagos,7,1,1,1,1,1700000060.25,1700000100,1700000160.5,DONE\n\
             j-b,lagos,7,1,1,1,1,1700000000,1700000000,1700000050,DONE\n"
        );
        let trace = read_trace(text.as_bytes()).unwrap();
        let r = &trace.records;
        assert_eq!((r[0].submit_s, r[0].end_s), (80_000.0, 80_050.0));
        assert_eq!(
            (r[1].submit_s, r[1].start_s, r[1].end_s),
            (80_060.25, 80_100.0, 80_160.5)
        );
        assert!(!trace.extended);
        assert_eq!(
            (r[0].provider, r[0].is_study, r[0].crossed_calibration),
            (0, true, false)
        );
    }

    #[test]
    fn unsorted_input_still_derives_backlog_in_submit_order() {
        // j-b submits first but appears second in the file.
        let text = format!(
            "{INGEST_HEADER}\n\
             j-a,lagos,7,1,1,1,1,100,150,200,DONE\n\
             j-b,lagos,7,1,1,1,1,0,10,150,DONE\n"
        );
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.job_ids, vec!["j-b", "j-a"], "submission order");
        assert_eq!(trace.records[0].pending_at_submit, 0);
        assert_eq!(trace.records[1].pending_at_submit, 1, "j-b still running");
    }
}
