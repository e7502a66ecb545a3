//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric and output check, then one
//! JSON result line: the end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, its per-layer metrics with `--trace 1`.
//! `perfbench --record-digests` prints the solo-run digests that
//! `digests.txt` records.

use lynceus_perfbench::digest::digest;
use lynceus_perfbench::probe::CallLog;
use lynceus_perfbench::workloads::{recurring, tensorflow, wire};
use lynceus_perfbench::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace,
    })
}

/// Prints `workload key digest` for every session, each run solo.
fn record_digests() {
    println!("# workload key digest (regenerate with --record-digests)");
    for (spec, (report, _)) in tensorflow::specs()
        .iter()
        .zip(tensorflow::solo(&tensorflow::specs()))
    {
        println!("{} {} {}", tensorflow::NAME, spec.key, digest(&report));
    }
    for run in recurring::solo(&recurring::jobs()) {
        println!("{} {} {}", recurring::NAME, run.key, digest(&run.report));
    }
    for i in 0..wire::SESSIONS {
        let report = wire::solo(i, Arc::new(CallLog::default()));
        println!("{} {} {}", wire::NAME, wire::key(i), digest(&report));
    }
}

/// Keeps the planned mid-step panics of the fault storm off stderr; every
/// other panic reaches the default hook.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected mid-step panic") {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record-digests") {
        record_digests();
        return ExitCode::SUCCESS;
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <tune-tensorflow|recurring-durable|wire-light> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    quiet_injected_panics();
    let (outcome, shape, rounds) = match args.workload.as_str() {
        tensorflow::NAME => tensorflow::run(args.seed, args.seconds, args.trace),
        recurring::NAME => recurring::run(args.seed, args.seconds, args.trace),
        wire::NAME => wire::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    lynceus_perfbench::clean_work_dirs();
    let header = format!(
        "perfbench workload={} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let selected = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.print(&header, shape, rounds, selected) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}
