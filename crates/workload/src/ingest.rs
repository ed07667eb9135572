//! External-trace ingestion: parse ARLIS-style CSV job logs into
//! [`JobRecord`]s.
//!
//! The paper's analyses run over IBM Quantum job logs; this adapter lets
//! the same Study/audit pipeline consume *real* exported logs instead of
//! simulated ones. The expected schema (one job per row):
//!
//! ```text
//! job_id,backend,qubits,circuits,shots,depth,width,submit_ts,start_ts,end_ts,status
//! ```
//!
//! - `job_id` — unique opaque token (kept in [`IngestedTrace::job_ids`];
//!   records get sequential ids in submission order).
//! - `backend` — machine name; machines are indexed in first-appearance
//!   order and their qubit counts collected into
//!   [`IngestedTrace::machine_qubits`].
//! - `submit_ts`/`start_ts`/`end_ts` — absolute timestamps in seconds
//!   (e.g. epoch); the whole trace is re-based so the earliest submission
//!   is `t = 0`.
//! - `status` — `COMPLETED`/`DONE`, `ERROR`/`FAILED`, or `CANCELLED`
//!   (case-insensitive).
//!
//! `pending_at_submit` is not in the schema; it is re-derived from the
//! timestamps (jobs submitted earlier and still unfinished at this job's
//! submission, per machine), which is what the queue-wait predictor
//! trains on.
//!
//! Every malformed field is a typed [`TraceError::Parse`] with a 1-based
//! line number: the error type of `qcs_cloud::trace`'s own CSV reader.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::BufRead;

use qcs_cloud::trace::TraceError;
use qcs_cloud::{JobOutcome, JobRecord};

/// The expected CSV header (line 1).
pub const INGEST_HEADER: &str =
    "job_id,backend,qubits,circuits,shots,depth,width,submit_ts,start_ts,end_ts,status";

/// An ingested external trace, ready for the Study/audit/predictor
/// pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestedTrace {
    /// Records in submission order, re-based to `t = 0` at the earliest
    /// submission. `machine` indexes [`machines`](IngestedTrace::machines);
    /// `pending_at_submit` is re-derived from the timestamps.
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
}

/// One parsed row before indexing/derivation.
struct Row {
    job_id: String,
    backend: String,
    qubits: usize,
    circuits: u32,
    shots: u32,
    depth: f64,
    width: f64,
    submit: f64,
    start: f64,
    end: f64,
    outcome: JobOutcome,
}

/// Read an external job log (see the module docs for the schema).
///
/// # Errors
///
/// [`TraceError::Io`] on read failure; [`TraceError::Parse`] on a
/// missing/odd header, a malformed field, duplicate `job_id`s,
/// out-of-order timestamps (`submit <= start <= end` must hold), or a
/// backend whose qubit count changes between rows.
pub fn read_trace<R: BufRead>(reader: R) -> Result<IngestedTrace, TraceError> {
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines.next().ok_or(TraceError::Parse {
        line: 1,
        message: "empty trace".to_string(),
    })?;
    let header = header?;
    if header.trim() != INGEST_HEADER {
        return Err(TraceError::Parse {
            line: 1,
            message: format!("unexpected header: {header}"),
        });
    }

    let mut rows: Vec<(usize, Row)> = Vec::new();
    for (idx, line) in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        rows.push((idx + 1, parse_row(&line, idx + 1)?));
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

    // Re-base onto trace-relative seconds and derive the backlog each job
    // saw at submission: per machine, earlier-submitted jobs whose end
    // time is still in the future.
    let t0 = rows
        .iter()
        .map(|(_, r)| r.submit)
        .fold(f64::INFINITY, f64::min);
    rows.sort_by(|(_, a), (_, b)| a.submit.total_cmp(&b.submit));
    let mut in_flight: Vec<BinaryHeap<Reverse<OrderedEnd>>> =
        (0..machines.len()).map(|_| BinaryHeap::new()).collect();
    let mut records = Vec::with_capacity(rows.len());
    let mut job_ids = Vec::with_capacity(rows.len());
    for (id, (_, row)) in rows.into_iter().enumerate() {
        let machine = index_of[&row.backend];
        let heap = &mut in_flight[machine];
        while heap
            .peek()
            .is_some_and(|Reverse(OrderedEnd(end))| *end <= row.submit)
        {
            heap.pop();
        }
        let pending_at_submit = heap.len();
        heap.push(Reverse(OrderedEnd(row.end)));
        records.push(JobRecord {
            id: id as u64,
            provider: 0,
            machine,
            circuits: row.circuits,
            shots: row.shots,
            mean_width: row.width,
            mean_depth: row.depth,
            is_study: true,
            submit_s: row.submit - t0,
            start_s: row.start - t0,
            end_s: row.end - t0,
            outcome: row.outcome,
            pending_at_submit,
            crossed_calibration: false,
        });
        job_ids.push(row.job_id);
    }

    Ok(IngestedTrace {
        records,
        machines,
        machine_qubits,
        job_ids,
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

fn parse_row(line: &str, lineno: usize) -> Result<Row, TraceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 11 {
        return Err(TraceError::Parse {
            line: lineno,
            message: format!("expected 11 fields, got {}", fields.len()),
        });
    }
    let err = |message: String| TraceError::Parse {
        line: lineno,
        message,
    };
    let parse_ts = |field: &str, name: &str| -> Result<f64, TraceError> {
        let value = field
            .parse::<f64>()
            .map_err(|_| err(format!("bad {name}: {field}")))?;
        if !value.is_finite() {
            return Err(err(format!("non-finite {name}: {field}")));
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
    let qubits: usize = fields[2]
        .parse()
        .map_err(|_| err(format!("bad qubits: {}", fields[2])))?;
    if qubits == 0 {
        return Err(err("qubits must be >= 1".to_string()));
    }
    let circuits: u32 = fields[3]
        .parse()
        .map_err(|_| err(format!("bad circuits: {}", fields[3])))?;
    let shots: u32 = fields[4]
        .parse()
        .map_err(|_| err(format!("bad shots: {}", fields[4])))?;
    let depth = parse_ts(fields[5], "depth")?;
    let width = parse_ts(fields[6], "width")?;
    if depth < 0.0 || width < 0.0 {
        return Err(err(format!("negative depth/width: {depth},{width}")));
    }
    let submit = parse_ts(fields[7], "submit_ts")?;
    let start = parse_ts(fields[8], "start_ts")?;
    let end = parse_ts(fields[9], "end_ts")?;
    if !(submit <= start && start <= end) {
        return Err(err(format!(
            "timestamps violate submit <= start <= end: {submit},{start},{end}"
        )));
    }
    let outcome = match fields[10].to_ascii_uppercase().as_str() {
        "COMPLETED" | "DONE" => JobOutcome::Completed,
        "ERROR" | "FAILED" => JobOutcome::Errored,
        "CANCELLED" => JobOutcome::Cancelled,
        other => return Err(err(format!("unknown status: {other}"))),
    };
    Ok(Row {
        job_id,
        backend,
        qubits,
        circuits,
        shots,
        depth,
        width,
        submit,
        start,
        end,
        outcome,
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
        text.push_str("j-d,ibm_lagos,7,1,128,4,1,1050,1160,1200,CANCELLED\n");
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
        // Earliest submit re-based to 0, order preserved.
        assert_eq!(records[0].submit_s, 0.0);
        assert_eq!(records[1].submit_s, 10.0);
        assert_eq!(records[0].end_s, 100.0);
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
