//! The benchmark of the HypeR reproduction: one command runs one named
//! workload through the public API, checks every output, and prints the
//! end-to-end metrics (or, traced, the per-layer metrics) as the last
//! line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive_10k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `README.md` for the workloads, metrics and reference figures.

mod common;
mod inproc;
mod layers;
mod plan;
mod stats;

use crate::common::{Recorder, Res, DATA_SEED};

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Operation-sequence seed.
    pub seed: u64,
    /// Measured seconds (whole rounds run until this has passed).
    pub seconds: u64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// German-Syn generator seed.
    pub data_seed: u64,
}

const USAGE: &str = "usage: hyper-perfbench --workload <interactive_10k|analyst_100k> \
                     --seed <n> --seconds <n> --trace <0|1> [--data-seed <n>]";

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30,
        trace: false,
        data_seed: DATA_SEED,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            "--data-seed" => args.data_seed = num()?,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

const INTERACTIVE_10K: inproc::Shape = inproc::Shape {
    name: "interactive_10k",
    rows: 10_000,
    howto: "Use german_syn HowToUpdate status, savings, housing, credit_amount \
            ToMaximize Count(Post(credit) = 'Good')",
    layer_reps: 20,
};

const ANALYST_100K: inproc::Shape = inproc::Shape {
    name: "analyst_100k",
    rows: 100_000,
    howto: "Use german_syn HowToUpdate status, savings ToMaximize Count(Post(credit) = 'Good')",
    layer_reps: 5,
};

fn run(args: &Args) -> Res<(Recorder, common::Metrics)> {
    match args.workload.as_str() {
        "interactive_10k" => inproc::run(&INTERACTIVE_10K, args),
        "analyst_100k" => inproc::run(&ANALYST_100K, args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn main() {
    // A fixed thread budget whatever the host: the process-wide pool (used
    // by the traced run's probe server) gets one worker plus the caller.
    // Set before anything reads it.
    std::env::set_var("HYPER_RUNTIME_WORKERS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let (rec, metrics) = run(&args)?;
        rec.print_counts();
        rec.print_samples();
        let (attempted, failed) = rec.totals();
        metrics.result_line(attempted, failed)
    });
    match outcome {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
