//! The job-log codec's write/read contract, column by column, under the
//! full 15-column header: what [`write_trace`](crate::write_trace)
//! writes, [`read_trace`](crate::read_trace) reads back field for field,
//! and every malformed row or field is a typed
//! [`TraceError::Parse`](crate::TraceError) naming its column and line.
//! The 11-column reading (re-basing, derived backlogs, causality) is
//! tested beside the reader in `ingest`.

#[cfg(test)]
mod tests {
    use qcs_cloud::{JobOutcome, JobRecord};

    use crate::ingest::{read_trace, write_trace, IngestedTrace, TraceError, INGEST_HEADER};

    fn sample_records() -> Vec<JobRecord> {
        let record = |id, machine, outcome, times: (f64, f64, f64)| JobRecord {
            id,
            provider: 3,
            machine,
            circuits: 20,
            shots: 8192,
            mean_width: 4.5,
            mean_depth: 31.25,
            is_study: machine == 1,
            submit_s: times.0,
            start_s: times.1,
            end_s: times.2,
            outcome,
            pending_at_submit: 9,
            crossed_calibration: id == 7,
        };
        vec![
            record(7, 1, JobOutcome::Completed, (0.1, 400.0, 460.25)),
            record(2, 0, JobOutcome::Cancelled, (50.0, 51.0, 51.0)),
            record(5, 1, JobOutcome::Errored, (60.0, 460.25, 461.0)),
        ]
    }

    fn written(records: &[JobRecord]) -> String {
        let mut buffer = Vec::new();
        let machines = ["lagos".to_string(), "perth".to_string()];
        write_trace(&mut buffer, records, &machines, &[7, 27]).unwrap();
        String::from_utf8(buffer).unwrap()
    }

    /// The written header and first row's fields, for corrupting one
    /// field at a time.
    fn header_and_fields() -> (String, Vec<String>) {
        let text = written(&sample_records());
        let (header, rows) = text.split_once('\n').unwrap();
        let row = rows.lines().next().unwrap();
        (
            header.to_string(),
            row.split(',').map(str::to_string).collect(),
        )
    }

    fn read_with(fields: &[String]) -> Result<IngestedTrace, TraceError> {
        let (header, _) = header_and_fields();
        read_trace(format!("{header}\n{}\n", fields.join(",")).as_bytes())
    }

    /// Corrupt each `(index, message)` column with each bogus value and
    /// expect a line-2 parse error carrying the message.
    fn assert_rejected(columns: &[(usize, &str)], bogus: &[&str]) {
        for &(index, needle) in columns {
            for value in bogus {
                let (_, mut fields) = header_and_fields();
                fields[index] = value.to_string();
                let err = read_with(&fields).unwrap_err();
                assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
                assert!(
                    err.to_string().contains(needle),
                    "field {index} = {value}: {err}"
                );
            }
        }
    }

    #[test]
    fn round_trip() {
        let records = sample_records();
        let text = written(&records);
        assert!(text.starts_with(&format!("{INGEST_HEADER},provider,")));
        let trace = read_trace(text.as_bytes()).unwrap();
        assert!(trace.extended);
        assert_eq!(trace.job_ids, ["7", "2", "5"]);
        assert_eq!(trace.machines, ["perth", "lagos"]);
        assert_eq!(trace.machine_qubits, [27, 7]);
        for (back, original) in trace.records.iter().zip(&records) {
            assert_eq!(back.machine, 1 - original.machine, "mapped back by name");
            assert_eq!(
                *back,
                JobRecord {
                    id: back.id,
                    machine: back.machine,
                    ..original.clone()
                }
            );
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = read_trace(written(&[]).as_bytes()).unwrap();
        assert!(trace.records.is_empty() && trace.machines.is_empty());
        assert!(trace.extended);
    }

    #[test]
    fn rejects_bad_header() {
        let (header, _) = header_and_fields();
        for bad in [
            "id,foo".to_string(),
            format!("{INGEST_HEADER},provider"),
            format!("{header},extra"),
        ] {
            let err = read_trace(format!("{bad}\n").as_bytes()).unwrap_err();
            assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err}");
            assert!(err.to_string().contains("unexpected header"), "{err}");
        }
    }

    #[test]
    fn rejects_short_row() {
        let (header, fields) = header_and_fields();
        for short in [
            "1,2,3".to_string(),
            fields[..11].join(","),
            fields[..14].join(","),
        ] {
            let err = read_trace(format!("{header}\n{short}\n").as_bytes()).unwrap_err();
            assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
            assert!(err.to_string().contains("expected 15 fields, got"), "{err}");
        }
    }

    #[test]
    fn rejects_long_row() {
        let (_, mut fields) = header_and_fields();
        // A full row under the 11-column header is a long row too.
        let text = format!("{INGEST_HEADER}\n{}\n", fields.join(","));
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("expected 11 fields, got 15"),
            "{err}"
        );
        fields.push("extra".to_string());
        let err = read_with(&fields).unwrap_err();
        assert!(
            err.to_string().contains("expected 15 fields, got 16"),
            "{err}"
        );
    }

    #[test]
    fn rejects_bad_outcome() {
        let corrupted = written(&sample_records()).replace("COMPLETED", "EXPLODED");
        let err = read_trace(corrupted.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("unknown status"), "{err}");
    }

    #[test]
    fn rejects_bad_int_fields() {
        assert_rejected(
            &[
                (2, "bad qubits"),
                (3, "bad circuits"),
                (4, "bad shots"),
                (11, "bad provider"),
                (14, "bad pending_at_submit"),
            ],
            // Unsigned columns refuse negatives, fractions and overflow.
            &["3.5x", "-1", "1.5", "99999999999999999999999"],
        );
    }

    #[test]
    fn rejects_bad_float_fields() {
        let columns = [
            (5, "depth"),
            (6, "width"),
            (7, "submit_ts"),
            (8, "start_ts"),
            (9, "end_ts"),
        ];
        for (index, name) in columns {
            assert_rejected(&[(index, &format!("bad {name}"))], &["not-a-number", ""]);
            assert_rejected(&[(index, &format!("non-finite {name}"))], &["inf", "NaN"]);
        }
        assert_rejected(
            &[(5, "negative depth/width"), (6, "negative depth/width")],
            &["-0.5"],
        );
    }

    #[test]
    fn rejects_bad_bool_fields() {
        assert_rejected(
            &[(12, "bad is_study"), (13, "bad crossed_calibration")],
            &["yes", "1", "TRUE"],
        );
    }

    #[test]
    fn error_reports_correct_line_number() {
        // Blank lines count: the bad row is the file's fifth line.
        let text = format!(
            "{INGEST_HEADER}\n\
             j-a,lagos,7,1,1,1,1,0,1,2,DONE\n\
             \n\
             j-b,lagos,7,1,1,1,1,0,1,2,DONE\n\
             j-c,lagos,7,?,1,1,1,0,1,2,DONE\n"
        );
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 5, .. }), "{err}");
    }

    #[test]
    fn skips_blank_lines() {
        let text = written(&sample_records());
        let (header, rows) = text.split_once('\n').unwrap();
        let padded = format!("{header}\n\n{}\n  \n\n", rows.replace('\n', "\n\n"));
        let trace = read_trace(padded.as_bytes()).unwrap();
        assert_eq!(trace.records.len(), 3);
        assert_eq!(trace, read_trace(text.as_bytes()).unwrap());
    }
}
