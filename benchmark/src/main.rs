//! The repo's benchmark: six seeded workloads over the job trip (wire to
//! DES to sink) and the circuit trip (QASM to counts), measured end to end
//! untraced and layer by layer traced. See `README.md` beside this package.
//!
//! With `--workload` this process measures that workload and prints, as the
//! last line of its standard output, the JSON object the driver reads.
//! Without it, it runs every workload in a child process of its own.

mod json;
mod measure;
mod micro;
mod run;
mod spec;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::RunArgs;
use spec::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use suite::SuiteArgs;
use workloads::Scale;

/// Digests of the deterministic workloads' outputs at [`DEFAULT_SEED`].
const GOLDEN: &str = include_str!("../golden.json");

/// Seconds per workload of the `--quick` smoke.
const QUICK_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--repeat-check]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat_check: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        repeat_check: false,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.seconds = Some(seconds);
            }
            // The driver writes `--trace 0|1`; by hand a bare `--trace` is
            // enough.
            "--trace" => {
                cli.trace = match args.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.quick = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.repeat_check && cli.quick {
        return Err(
            "--repeat-check compares timings, and --quick timings are not comparable".to_string(),
        );
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
        if cli.repeat_check {
            return Err("--repeat-check runs the whole suite; leave --workload out".to_string());
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    let seconds = cli
        .seconds
        .unwrap_or(scale.of([RUN_SECONDS as f64, QUICK_SECONDS]));

    if let Some(workload) = cli.workload {
        let report = run::run(&RunArgs {
            workload,
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            scale,
        })
        .expect("parse checked the name");
        for line in report.lines() {
            println!("{line}");
        }
        println!("{}", report.result_line());
        return if report.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let suite = SuiteArgs {
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        scale,
    };
    let passed = if cli.repeat_check {
        suite::repeat_check(&suite)
    } else {
        suite::run_suite(&suite).map(|results| {
            let wrong: Vec<&str> = results
                .iter()
                .filter(|r| !r.correct)
                .map(|r| r.workload)
                .collect();
            if !wrong.is_empty() {
                println!("\nCORRECTNESS FAILURE in {}", wrong.join(", "));
            }
            wrong.is_empty()
        })
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("{error}");
            ExitCode::FAILURE
        }
    }
}
