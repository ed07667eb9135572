//! The job-log codec round-trips a simulated study: every record written
//! by `write_trace` reads back bit for bit, and the order-free figures of
//! `Study::from_trace` on the re-read log equal the simulated study's.

use std::collections::HashMap;

use qcs::cloud::{CloudConfig, JobRecord};
use qcs::workload::ingest::{read_trace, write_trace};
use qcs::{Study, StudyConfig};

/// The smoke study with every background record retained, so the log's
/// aggregates cover the whole population.
fn smoke_study() -> Study {
    Study::run(&StudyConfig {
        cloud: CloudConfig {
            background_record_divisor: 1,
            ..CloudConfig::default()
        },
        ..StudyConfig::smoke()
    })
}

fn exported(study: &Study) -> Vec<u8> {
    let mut buffer = Vec::new();
    write_trace(
        &mut buffer,
        &study.result().records,
        study.machine_names(),
        study.machine_qubits(),
    )
    .expect("export succeeds");
    buffer
}

/// A record's floats as bits: `==` would let `-0.0` pass for `0.0`.
fn float_bits(r: &JobRecord) -> [u64; 5] {
    [r.mean_width, r.mean_depth, r.submit_s, r.start_s, r.end_s].map(f64::to_bits)
}

/// A per-machine series keyed by name, printed through `Debug` (whose
/// `f64` form parses back to the same bits).
fn by_name<T: std::fmt::Debug>(mut series: Vec<(String, T)>) -> String {
    series.sort_by(|a, b| a.0.cmp(&b.0));
    format!("{series:?}")
}

#[test]
fn study_trace_survives_export_import() {
    let study = smoke_study();
    let trace = read_trace(exported(&study).as_slice()).expect("import succeeds");
    let original = &study.result().records;
    assert!(trace.extended);
    assert_eq!(trace.records.len(), original.len());
    let by_id: HashMap<u64, &JobRecord> = original.iter().map(|r| (r.id, r)).collect();
    for (token, back) in trace.job_ids.iter().zip(&trace.records) {
        let r = by_id[&token.parse::<u64>().expect("job_id is the record id")];
        assert_eq!(trace.machines[back.machine], study.machine_name(r.machine));
        assert_eq!(
            trace.machine_qubits[back.machine],
            study.machine_qubits()[r.machine]
        );
        let expected = JobRecord {
            id: back.id,
            machine: back.machine,
            ..r.clone()
        };
        assert_eq!(*back, expected, "job {token}");
        assert_eq!(float_bits(back), float_bits(r), "job {token}");
    }

    let ingested = Study::from_trace(trace);
    let same = |what: &str, simulated: String, read: String| {
        assert_eq!(read, simulated, "{what}");
    };
    same(
        "Fig 2a",
        format!("{:?}", study.cumulative_executions()),
        format!("{:?}", ingested.cumulative_executions()),
    );
    same(
        "Fig 2b",
        format!("{:?}", study.outcome_fractions()),
        format!("{:?}", ingested.outcome_fractions()),
    );
    same(
        "Fig 3",
        format!("{:?}", study.queue_times_sorted_min()),
        format!("{:?}", ingested.queue_times_sorted_min()),
    );
    same(
        "Fig 3 anchors",
        format!("{:?}", study.queue_time_anchors()),
        format!("{:?}", ingested.queue_time_anchors()),
    );
    same(
        "Fig 4",
        format!("{:?}", study.queue_exec_ratios_sorted()),
        format!("{:?}", ingested.queue_exec_ratios_sorted()),
    );
    same(
        "Fig 8",
        by_name(study.utilization_by_machine()),
        by_name(ingested.utilization_by_machine()),
    );
    same(
        "Fig 10",
        by_name(study.queue_time_by_machine()),
        by_name(ingested.queue_time_by_machine()),
    );
    same(
        "Fig 11",
        format!("{:?}", study.queue_time_vs_batch()),
        format!("{:?}", ingested.queue_time_vs_batch()),
    );
    same(
        "Fig 12a",
        format!("{:?}", study.calibration_crossover_fraction()),
        format!("{:?}", ingested.calibration_crossover_fraction()),
    );
    same(
        "Fig 13",
        by_name(study.exec_time_by_machine()),
        by_name(ingested.exec_time_by_machine()),
    );
    // The log has no queue samples, so Fig 9 is not made up.
    assert!(study.pending_jobs_by_machine().is_some());
    assert_eq!(ingested.pending_jobs_by_machine(), None);
}

#[test]
fn trace_is_parseable_by_line_tools() {
    // The CSV must stay flat and line-oriented for external analysis.
    let study = smoke_study();
    let text = String::from_utf8(exported(&study)).expect("trace is utf-8");
    let mut lines = text.lines();
    let header = lines.next().expect("has header");
    let columns = header.split(',').count();
    assert_eq!(columns, 15);
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
    }
}
