//! The segbus end-to-end benchmark: one process per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm|serve_cold|place_grid --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it makes the traced run that splits the workload by layer. Either way
//! it checks every output against an independent oracle and prints one
//! JSON object as the last line of standard output; it exits non-zero
//! when any check failed. README.md describes the workloads, the metrics
//! and what each layer should move.

mod client;
mod inputs;
mod metrics;
mod oracle;
mod place;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::RunReport;
use trace::Tracer;

/// Set-up is repeated this many times per run and reported by its median.
pub const SETUP_REPEATS: usize = 15;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve_warm", "serve_cold", "place_grid"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Make the traced run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where runs keep temporary report stores and write their spans: a
/// directory inside the benchmark's own, ignored by git.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn run(args: &Args) -> RunReport {
    let mut report = RunReport::default();
    let result = if args.trace {
        // Every per-layer metric is printed; a workload that does not
        // reach a layer leaves its figures at 0.
        for (name, unit, _) in metrics::per_layer() {
            report.set(&name, 0.0, unit);
        }
        let mut tracer = Tracer::new();
        let r = match args.workload.as_str() {
            "serve_warm" => serve::warm_traced(args, &mut report, &mut tracer),
            "serve_cold" => serve::cold_traced(args, &mut report, &mut tracer),
            _ => place::traced(args, &mut report, &mut tracer),
        };
        let path = work_dir().join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => report.error(format!("cannot write spans: {e}")),
        }
        r
    } else {
        match args.workload.as_str() {
            "serve_warm" => serve::warm(args, &mut report),
            "serve_cold" => serve::cold(args, &mut report),
            _ => place::run(args, &mut report),
        }
    };
    if let Err(e) = result {
        report.error(e);
    }
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-metrics") {
        for (name, unit, better) in metrics::end_to_end() {
            println!("end_to_end\t{name}\t{unit}\t{better}");
        }
        for (name, unit, better) in metrics::per_layer() {
            println!("per_layer\t{name}\t{unit}\t{better}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args);
    let table = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let line = report.finish(&table);
    for e in &report.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload place_grid --seed 9 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "place_grid");
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload serve_warm --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_warm --seconds")).is_err());
    }
}
