//! One run of one workload in this process: set up a few times, measure
//! units for the asked time, check the outputs, and report. The untraced
//! run yields the end-to-end metrics; the traced run yields the span
//! budget and every per-layer metric.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::measure::{self, percentile_ns, Quartiles};
use crate::spec::{Better, Layers, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::trace::{SelfTime, Tracer};
use crate::workloads::compile_fleet::CompileFleet;
use crate::workloads::fleet_stream::FleetStream;
use crate::workloads::gateway::{GatewayQuery, GatewaySubmit, Mix};
use crate::workloads::sim_fleet::SimFleet;
use crate::workloads::study_batch::StudyBatch;
use crate::workloads::{self, Scale, UnitOutcome, Workload};
use crate::{micro, GOLDEN};

/// Fewest units a comparable run measures, however slow the host.
const MIN_UNITS: usize = 5;
/// The span the runner wraps around every traced unit.
const UNIT_SPAN: &str = "bench.unit";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One reported metric: the value, its unit and direction, and for a
/// timing the quartiles over the units (or set-ups) it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    pub spread: Option<Quartiles>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum DigestCheck {
    /// The workload's outputs depend on wall time; it has no digest.
    None,
    Matches(String),
    /// Not the default seed: units agreed with each other, nothing more.
    Unchecked(String),
    Mismatch {
        got: String,
        want: String,
    },
    /// Two units of one run disagreed.
    Unstable(Vec<String>),
}

#[derive(Debug)]
pub struct Report {
    pub provenance: Json,
    pub op: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub units: usize,
    pub metrics: Vec<Metric>,
    /// `ops_per_s` of each untraced unit in order, to show drift.
    pub series: Vec<f64>,
    pub digest: DigestCheck,
    pub notes: Vec<String>,
    /// Metric names that cannot be trusted on this host (not pinned).
    pub unresolved: Vec<&'static str>,
    /// The traced run's budget table, one line per row.
    pub budget: Vec<String>,
}

/// Run `args.workload`; `None` when no workload has that name.
pub fn run(args: &RunArgs) -> Option<Report> {
    Some(match args.workload.as_str() {
        FleetStream::NAME => run_workload::<FleetStream>(args),
        StudyBatch::NAME => run_workload::<StudyBatch>(args),
        GatewaySubmit::NAME => run_workload::<GatewaySubmit>(args),
        GatewayQuery::NAME => run_workload::<GatewayQuery>(args),
        CompileFleet::NAME => run_workload::<CompileFleet>(args),
        SimFleet::NAME => run_workload::<SimFleet>(args),
        _ => return None,
    })
}

fn provenance<W: Workload>(args: &RunArgs, cpus_available: usize, pinned: Option<usize>) -> Json {
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()));
    Json::obj([
        ("git_rev", env("QCS_BENCH_GIT_REV")),
        ("rustc", env("QCS_BENCH_RUSTC")),
        ("cpus_available", Json::Num(cpus_available as f64)),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        ("avx2", Json::Bool(measure::avx2_detected())),
        ("seed", Json::Num(args.seed as f64)),
        ("workload", Json::str(W::NAME)),
        ("config_digest", Json::str(W::config_digest(args.scale))),
        (
            "scale",
            Json::str(args.scale.of(["full", "quick: not comparable"])),
        ),
        ("traced", Json::Bool(args.trace)),
    ])
}

/// The units one run measured, and what went wrong in them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digests: Vec<String>,
    notes: Vec<String>,
}

impl Tally {
    fn add(&mut self, outcome: &UnitOutcome) {
        self.attempted += outcome.ops;
        self.failed += outcome.failed;
        self.digests.extend(outcome.digest.clone());
        self.notes.extend(outcome.notes.iter().take(3).cloned());
    }

    fn check_digest(&mut self, workload: &str, config: &str, args: &RunArgs) -> DigestCheck {
        let Some(first) = self.digests.first().cloned() else {
            return DigestCheck::None;
        };
        let check = if self.digests.iter().any(|d| *d != first) {
            let mut distinct = self.digests.clone();
            distinct.sort();
            distinct.dedup();
            DigestCheck::Unstable(distinct)
        } else if args.seed != DEFAULT_SEED {
            DigestCheck::Unchecked(first)
        } else {
            match golden_digest(workload, config) {
                Some(want) if want == first => DigestCheck::Matches(first),
                Some(want) => DigestCheck::Mismatch { got: first, want },
                None => DigestCheck::Mismatch {
                    got: first,
                    want: format!("nothing for config {config}"),
                },
            }
        };
        if matches!(
            check,
            DigestCheck::Mismatch { .. } | DigestCheck::Unstable(_)
        ) {
            // A wrong digest spoils every operation.
            self.failed = self.attempted;
        }
        check
    }
}

/// The digest `golden.json` holds for a workload at the sizes `config`
/// digests: the comparable ones and the `--quick` ones each have an entry.
fn golden_digest(workload: &str, config: &str) -> Option<String> {
    let golden = Json::parse(GOLDEN).expect("golden.json parses");
    assert_eq!(
        golden.get("seed").and_then(Json::as_f64),
        Some(DEFAULT_SEED as f64),
        "golden.json is for another seed"
    );
    golden
        .get("digests")?
        .get(workload)?
        .get(config)?
        .as_str()
        .map(str::to_string)
}

/// What a run gathers unit by unit. Every unit gets a set-up of its own,
/// outside the unit's timing: every unit starts from the same state, and
/// `setup_s` is sampled as often, and over the same stretch of time, as the
/// units are.
struct Harness<'a> {
    args: &'a RunArgs,
    setup_s: Vec<f64>,
    notes: Vec<String>,
    tally: Tally,
}

impl Harness<'_> {
    /// Set up, run one unit, tear down; returns the unit's outcome and its
    /// wall time in seconds.
    fn unit<W: Workload>(&mut self, tracer: &mut Tracer) -> (UnitOutcome, f64) {
        let started = Instant::now();
        let mut workload = W::setup(self.args.seed, self.args.scale);
        self.setup_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let outcome = tracer.span(UNIT_SPAN, |t| workload.unit(t));
        let wall_s = started.elapsed().as_secs_f64();
        self.notes.extend(workload.finish());
        self.tally.add(&outcome);
        (outcome, wall_s)
    }
}

fn run_workload<W: Workload>(args: &RunArgs) -> Report {
    let cpus_available = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = measure::pin_to_one_cpu();
    let provenance = provenance::<W>(args, cpus_available, pinned);
    let min_units = args.scale.of([MIN_UNITS, 1]);

    let mut harness = Harness {
        args,
        setup_s: Vec::new(),
        notes: Vec::new(),
        tally: Tally::default(),
    };

    let mut metrics = Vec::new();
    let mut budget = Vec::new();
    let mut series = Vec::new();
    let units;
    if args.trace {
        let traced = traced_units::<W>(&mut harness, min_units);
        units = traced.units;
        budget = traced.budget;
        let mut layers = Layers::default();
        layers.set("bench.trace_overhead_frac", traced.overhead_frac);
        layers.set("bench.budget_gap_frac", traced.gap_frac);
        let mix = W::GATEWAY_MIX.unwrap_or(Mix::Submit);
        probe_layers(args.seed, args.scale, mix, &mut layers);
        budget.extend(budget_tail(&layers));
        let missing = layers.missing();
        assert!(missing.is_empty(), "no probe set {missing:?}");
        metrics.extend(PER_LAYER.iter().map(|m| Metric {
            name: m.name,
            unit: m.unit,
            better: m.better,
            value: layers.get(m.name).expect("checked above"),
            spread: None,
        }));
    } else {
        let measured = untraced_units::<W>(&mut harness, min_units);
        units = measured.ops_per_s.len();
        let setup = Quartiles::of(&harness.setup_s);
        let ops_per_s = Quartiles::of(&measured.ops_per_s);
        let op_p50_us = Quartiles::of(&measured.op_p50_us);
        // Every timing reports the fastest sample, not the median one: on
        // a shared host interference only ever slows a unit down, and it
        // comes in phases of seconds, so the fastest unit repeats from run
        // to run two to three times better than the median unit does
        // (README, "Which unit is reported").
        let values = [
            ("setup_s", setup.min, Some(setup)),
            ("ops_per_s", ops_per_s.max, Some(ops_per_s)),
            ("op_p50_us", op_p50_us.min, Some(op_p50_us)),
            ("peak_rss_mib", measure::peak_rss_mib(), None),
        ];
        metrics.extend(END_TO_END.iter().map(|m| {
            let (_, value, spread) = values
                .iter()
                .find(|(name, ..)| *name == m.name)
                .expect("every end-to-end metric is measured");
            Metric {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value: *value,
                spread: *spread,
            }
        }));
        series = measured.ops_per_s;
    }

    let Harness {
        mut tally,
        mut notes,
        ..
    } = harness;
    let digest = tally.check_digest(W::NAME, &W::config_digest(args.scale), args);
    if !notes.is_empty() {
        // An end-of-run check failed: the session as a whole is wrong.
        tally.failed = tally.attempted;
    }
    notes.extend(tally.notes);
    let unresolved = if pinned.is_none() && W::GATEWAY_MIX.is_some() {
        vec!["ops_per_s", "op_p50_us"]
    } else {
        Vec::new()
    };
    Report {
        provenance,
        op: W::OP,
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        units,
        metrics,
        series,
        digest,
        notes,
        unresolved,
        budget,
    }
}

struct Untraced {
    ops_per_s: Vec<f64>,
    op_p50_us: Vec<f64>,
}

fn untraced_units<W: Workload>(harness: &mut Harness<'_>, min_units: usize) -> Untraced {
    let mut off = Tracer::off();
    let mut measured = Untraced {
        ops_per_s: Vec::new(),
        op_p50_us: Vec::new(),
    };
    let window = Instant::now();
    while measured.ops_per_s.len() < min_units
        || window.elapsed().as_secs_f64() < harness.args.seconds
    {
        let (mut outcome, wall_s) = harness.unit::<W>(&mut off);
        measured.ops_per_s.push(outcome.ops as f64 / wall_s);
        measured
            .op_p50_us
            .push(percentile_ns(&mut outcome.op_ns, 0.5) / 1e3);
    }
    measured
}

struct Traced {
    units: usize,
    overhead_frac: f64,
    gap_frac: f64,
    budget: Vec<String>,
}

/// Alternate untraced and traced units for half the asked time (the probes
/// take the rest), write the trace, and draw up the budget.
fn traced_units<W: Workload>(harness: &mut Harness<'_>, min_units: usize) -> Traced {
    let pairs_min = min_units.div_ceil(2).max(1);
    let mut off = Tracer::off();
    let mut tracer = Tracer::on();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let window = Instant::now();
    while plain_s.len() < pairs_min || window.elapsed().as_secs_f64() < harness.args.seconds / 2.0 {
        plain_s.push(harness.unit::<W>(&mut off).1);
        tracer.set_unit(traced_s.len() as u32);
        traced_s.push(harness.unit::<W>(&mut tracer).1);
    }

    // A traced unit is compared with the untraced unit that ran just before
    // it: neighbours share the host's mood, medians over a run do not.
    let mut overheads = Vec::with_capacity(traced_s.len());
    let mut gaps = Vec::with_capacity(traced_s.len());
    for (unit, (plain, traced)) in plain_s.iter().zip(&traced_s).enumerate() {
        let layer_self_ns: u64 = tracer
            .self_time_ns(Some(&[unit as u32]))
            .iter()
            .filter(|(name, _)| **name != UNIT_SPAN)
            .map(|(_, t)| t.self_ns)
            .sum();
        overheads.push(traced / plain - 1.0);
        gaps.push(1.0 - layer_self_ns as f64 / 1e9 / plain);
    }
    let gap_frac = measure::median(&gaps);
    let mut budget = budget_table(
        &tracer.self_time_ns(None),
        traced_s.len() as f64,
        measure::median(&plain_s),
    );
    budget.push(format!(
        "gap between the layer self times of a traced unit and the untraced unit before it: median {:+.1}% over {} pairs",
        100.0 * gap_frac,
        gaps.len()
    ));
    write_trace(&tracer, W::NAME);
    Traced {
        units: plain_s.len() + traced_s.len(),
        overhead_frac: measure::median(&overheads),
        gap_frac,
        budget,
    }
}

/// What the spans cannot see from outside, from the probes: the tap inside
/// `cloud.step`, the server inside a round trip, and the two tails side by
/// side.
fn budget_tail(layers: &Layers) -> Vec<String> {
    let get = |name: &str| layers.get(name).unwrap_or(f64::NAN);
    vec![
        format!(
            "inside cloud.step: predictor tap {:.0} ns/record (replayed) beside bare DES {:.0} ns/job; tap share of the stream {:.0}%",
            get("predictor.observe_ns_per_record"),
            get("cloud.des_ns_per_job"),
            100.0 * get("predictor.share_of_stream"),
        ),
        format!(
            "inside a round trip of {:.2} us mean: in-process {:.2} us + parse {:.2} us + format {:.2} us; the wire, threads and lock take the rest",
            get("gateway.rtt_mean_us"),
            get("gateway.inproc_us_per_req"),
            get("gateway.parse_ns") / 1e3,
            get("gateway.format_ns") / 1e3,
        ),
        format!(
            "tails: predictor.observe p50 {:.2} us, p99 {:.2} us, max {:.0} us beside gateway.rtt p99 {:.1} us, max {:.0} us",
            get("predictor.observe_p50_ns") / 1e3,
            get("predictor.observe_p99_us"),
            get("predictor.observe_max_us"),
            get("gateway.rtt_p99_us"),
            get("gateway.rtt_max_us"),
        ),
    ]
}

/// The budget: per span name, calls and self time per traced unit, and
/// what share of an untraced unit that is.
fn budget_table(
    spans: &BTreeMap<&'static str, SelfTime>,
    traced_units: f64,
    untraced_unit_s: f64,
) -> Vec<String> {
    let mut rows: Vec<(&str, SelfTime)> = spans
        .iter()
        .filter(|(name, _)| **name != UNIT_SPAN)
        .map(|(name, t)| (*name, *t))
        .collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let per_unit_ms = |ns: u64| ns as f64 / traced_units / 1e6;
    let mut lines = vec![format!(
        "{:<30} {:>10} {:>14} {:>9}",
        "layer span", "calls/unit", "self ms/unit", "share"
    )];
    let mut layer_self_s = 0.0;
    for (name, t) in rows {
        let self_ms = per_unit_ms(t.self_ns);
        layer_self_s += self_ms / 1e3;
        lines.push(format!(
            "{name:<30} {:>10.0} {self_ms:>14.3} {:>8.1}%",
            t.count as f64 / traced_units,
            100.0 * self_ms / 1e3 / untraced_unit_s
        ));
    }
    let uncovered_ms = spans.get(UNIT_SPAN).map_or(0.0, |t| per_unit_ms(t.self_ns));
    lines.push(format!(
        "{:<30} {:>10} {uncovered_ms:>14.3} {:>8.1}%",
        "(outside any span)",
        "",
        100.0 * uncovered_ms / 1e3 / untraced_unit_s
    ));
    lines.push(format!(
        "layer self times sum to {:.3} ms per traced unit; the median untraced unit takes {:.3} ms",
        layer_self_s * 1e3,
        untraced_unit_s * 1e3,
    ));
    lines
}

fn write_trace(tracer: &Tracer, workload: &str) {
    let dir = std::env::var("QCS_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string());
    let path = format!("{dir}/trace-{workload}.json");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload).to_string()));
    match written {
        Ok(()) => eprintln!("trace: {} spans -> {path}", tracer.spans().len()),
        Err(error) => eprintln!("trace: could not write {path}: {error}"),
    }
}

/// Every layer probe. The same in every traced run but for the gateway
/// session's mix.
fn probe_layers(seed: u64, scale: Scale, mix: Mix, layers: &mut Layers) {
    workloads::fleet_stream::probe(seed, scale, layers);
    workloads::study_batch::probe(seed, scale, layers);
    workloads::gateway::probe(seed, scale, mix, layers);
    workloads::compile_fleet::probe(seed, layers);
    workloads::sim_fleet::probe(seed, scale, layers);
    micro::probe(seed, scale, layers);
}

impl Report {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The human-readable account, one line per entry.
    pub fn lines(&self) -> Vec<String> {
        let text = |key: &str| match self.provenance.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(other) => other.to_string(),
            None => "?".to_string(),
        };
        let mut lines = vec![
            format!("provenance {}", self.provenance),
            format!(
                "{} [config {}] seed {}: {} units, {} operations ({}), {} failed, fail_frac = {}",
                text("workload"),
                text("config_digest"),
                text("seed"),
                self.units,
                self.attempted,
                self.op,
                self.failed,
                self.failed as f64 / self.attempted as f64,
            ),
        ];
        for m in &self.metrics {
            let spread = m.spread.map_or(String::new(), |q| {
                format!(
                    "   (of {}: min {:.6}, p25 {:.6}, median {:.6}, p75 {:.6}, max {:.6})",
                    q.n, q.min, q.p25, q.p50, q.p75, q.max
                )
            });
            let flag = if self.unresolved.contains(&m.name) {
                "   UNRESOLVED: process is not pinned"
            } else {
                ""
            };
            lines.push(format!(
                "  {:<38} = {:>16.6} {:<5} {} is better{spread}{flag}",
                m.name,
                m.value,
                m.unit,
                m.better.as_str()
            ));
        }
        if !self.series.is_empty() {
            let units: Vec<String> = self.series.iter().map(|x| format!("{x:.4e}")).collect();
            lines.push(format!("  ops_per_s by unit: {}", units.join(" ")));
        }
        lines.push(match &self.digest {
            DigestCheck::None => {
                "  digest: none (outcomes depend on wall time); reply variants and conservation counters checked".to_string()
            }
            DigestCheck::Matches(d) => format!("  digest {d}: matches golden.json"),
            DigestCheck::Unchecked(d) => {
                format!("  digest {d}: NOT checked (golden.json is for seed {DEFAULT_SEED}); units agree")
            }
            DigestCheck::Mismatch { got, want } => {
                format!("  digest {got}: MISMATCH, golden.json has {want}")
            }
            DigestCheck::Unstable(all) => format!("  digest UNSTABLE across units: {all:?}"),
        });
        lines.extend(self.budget.iter().map(|row| format!("  | {row}")));
        lines.extend(self.notes.iter().map(|note| format!("  FAILED: {note}")));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: Vec<Metric>) -> Report {
        Report {
            provenance: Json::obj([("workload", Json::str("w"))]),
            op: "op",
            correct: true,
            attempted: 10,
            failed: 0,
            units: 5,
            metrics,
            series: Vec::new(),
            digest: DigestCheck::None,
            notes: Vec::new(),
            unresolved: Vec::new(),
            budget: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report(vec![Metric {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
            value: 0.8127,
            spread: None,
        }])
        .result_line();
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metric = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("s"));
        // One line, parseable back.
        assert!(!line.to_string().contains('\n'));
        assert_eq!(Json::parse(&line.to_string()).unwrap(), line);
    }

    #[test]
    fn budget_rows_sum_to_the_reported_total() {
        let spans = BTreeMap::from([
            (
                UNIT_SPAN,
                SelfTime {
                    count: 2,
                    total_ns: 2_000_000,
                    self_ns: 200_000,
                },
            ),
            (
                "cloud.step",
                SelfTime {
                    count: 30,
                    total_ns: 1_500_000,
                    self_ns: 1_500_000,
                },
            ),
            (
                "gateway.reconcile",
                SelfTime {
                    count: 32,
                    total_ns: 300_000,
                    self_ns: 300_000,
                },
            ),
        ]);
        let lines = budget_table(&spans, 2.0, 0.001);
        // Largest first, the unit span itself only as "(outside any span)".
        assert!(lines[1].starts_with("cloud.step"));
        assert!(lines[2].starts_with("gateway.reconcile"));
        assert!(lines[3].starts_with("(outside any span)"));
        assert!(
            lines[4].contains("sum to 0.900 ms per traced unit"),
            "{}",
            lines[4]
        );
    }

    #[test]
    fn a_wrong_or_wandering_digest_fails_every_operation() {
        let args = RunArgs {
            workload: "fleet_stream".to_string(),
            seed: DEFAULT_SEED + 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::Full,
        };
        let mut tally = Tally {
            attempted: 100,
            digests: vec!["aa".to_string(), "aa".to_string()],
            ..Tally::default()
        };
        assert_eq!(
            tally.check_digest("fleet_stream", "cfg", &args),
            DigestCheck::Unchecked("aa".to_string())
        );
        assert_eq!(tally.failed, 0);

        tally.digests.push("bb".to_string());
        assert!(matches!(
            tally.check_digest("fleet_stream", "cfg", &args),
            DigestCheck::Unstable(_)
        ));
        assert_eq!(tally.failed, 100);

        let default_seed = RunArgs {
            seed: DEFAULT_SEED,
            ..args
        };
        let mut tally = Tally {
            attempted: 7,
            digests: vec!["not the golden one".to_string()],
            ..Tally::default()
        };
        assert!(matches!(
            tally.check_digest("fleet_stream", "cfg", &default_seed),
            DigestCheck::Mismatch { .. }
        ));
        assert_eq!(tally.failed, 7);
        assert_eq!(
            Tally::default().check_digest("gateway_submit", "cfg", &default_seed),
            DigestCheck::None
        );
    }
}
