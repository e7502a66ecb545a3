//! Regenerates the paper's figures and tables at configurable fidelity.
//!
//! ```text
//! repro [--runs N] [--full] [fig1a|fig1b|fig4|fig5|fig6|fig7|fig8|fig9|table3|all]
//! ```
//!
//! With `--full` every job of each collection is used; `--runs` sets the
//! number of repetitions per (job, optimizer) pair (the paper uses 100).

use lynceus_datasets::catalog;
use lynceus_experiments::figures;
use lynceus_experiments::report::{render_figure, render_table};
use lynceus_experiments::ExperimentConfig;

const USAGE: &str =
    "usage: repro [--runs N] [--full] [fig1a|fig1b|fig4|fig5|fig6|fig7|fig8|fig9|table3|all]";

/// Every target name `repro` accepts.
const TARGETS: [&str; 10] = [
    "fig1a", "fig1b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3", "all",
];

#[derive(Debug, PartialEq)]
struct Options {
    runs: usize,
    full: bool,
    targets: Vec<String>,
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Run(Options),
    Help,
}

/// Parses the arguments after the program name. An unknown target or
/// flag, or a `--runs` without a positive integer, is an error naming the
/// offending argument.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut runs = 10;
    let mut full = false;
    let mut targets = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                let value = args.next().ok_or("--runs needs a value")?;
                runs = match value.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--runs needs a positive integer, got {value:?}")),
                };
            }
            "--full" => full = true,
            "--help" | "-h" => return Ok(Command::Help),
            target if TARGETS.contains(&target) => targets.push(arg),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_owned());
    }
    Ok(Command::Run(Options {
        runs,
        full,
        targets,
    }))
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(options)) => options,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("repro: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let config = ExperimentConfig::default().with_runs(options.runs);
    let tf = catalog::tensorflow_datasets();
    let wants = |name: &str| options.targets.iter().any(|t| t == name || t == "all");

    if wants("fig1a") {
        println!("{}", render_figure(&figures::fig1a(&tf)));
    }
    if wants("fig1b") {
        println!("{}", render_figure(&figures::fig1b(&tf)));
    }
    if wants("fig4") {
        for figure in figures::fig4(&tf, &config) {
            println!("{}", render_figure(&figure));
        }
    }
    if wants("fig5") {
        let scout = if options.full {
            catalog::scout_datasets()
        } else {
            catalog::scout_datasets().into_iter().take(6).collect()
        };
        let cherry = catalog::cherrypick_datasets();
        println!("{}", render_table(&figures::fig5(&scout, &cherry, &config)));
    }
    if wants("fig6") {
        for figure in figures::fig6(&tf, &config) {
            println!("{}", render_figure(&figure));
        }
    }
    if wants("fig7") {
        println!("{}", render_figure(&figures::fig7(&tf[0], &config)));
    }
    if wants("fig8") || wants("fig9") {
        let table = figures::budget_sensitivity(&tf, &[1.0, 3.0, 5.0], &config);
        println!("{}", render_table(&table));
    }
    if wants("table3") {
        println!("{}", render_table(&figures::table3(&tf[0], &config)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|&a| a.to_owned()))
    }

    fn run(runs: usize, full: bool, targets: &[&str]) -> Result<Command, String> {
        Ok(Command::Run(Options {
            runs,
            full,
            targets: targets.iter().map(|&t| t.to_owned()).collect(),
        }))
    }

    #[test]
    fn defaults_to_every_target_at_ten_runs() {
        assert_eq!(parse(&[]), run(10, false, &["all"]));
    }

    #[test]
    fn accepts_flags_and_known_targets_in_any_order() {
        assert_eq!(
            parse(&["fig1b", "--runs", "3", "--full", "table3"]),
            run(3, true, &["fig1b", "table3"])
        );
        for target in TARGETS {
            assert_eq!(parse(&[target]), run(10, false, &[target]));
        }
        assert_eq!(parse(&["fig4", "--help"]), Ok(Command::Help));
        assert_eq!(parse(&["-h"]), Ok(Command::Help));
    }

    #[test]
    fn rejects_unknown_targets_and_flags() {
        for bad in ["fig2", "Fig1b", "--fast", ""] {
            let error = parse(&["fig1b", bad]).expect_err(bad);
            assert!(error.contains(&format!("{bad:?}")), "{error}");
        }
    }

    #[test]
    fn rejects_runs_without_a_positive_integer() {
        assert_eq!(parse(&["--runs"]), Err("--runs needs a value".to_owned()));
        for bad in ["0", "-1", "x", "2.5", ""] {
            let error = parse(&["--runs", bad, "fig1b"]).expect_err(bad);
            assert!(
                error.starts_with("--runs needs a positive integer"),
                "{error}"
            );
        }
    }
}
