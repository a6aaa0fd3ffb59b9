//! The experiment report binary: regenerates the paper's tables and
//! figures (§9) and the ablations, printing one JSON object per metric
//! with its quartiles over `--runs` runs (default 3).
//!
//! ```sh
//! cargo run --release -p tdb-bench --bin report -- all
//! cargo run --release -p tdb-bench --bin report -- e1 e4 fig11
//! cargo run --release -p tdb-bench --bin report -- fig11 ablations --runs 10
//! ```

use tdb_bench::experiments::{summarize, Experiment, EXPERIMENTS};

const USAGE: &str = "usage: report [--runs N] <experiments...>\n\
     experiments: e1 e2 e3 e4 e5 e6 e7 e8 e9|fig9 e10|fig10 e11|fig11 e12|fig12 ablations | all | micro";

/// A parsed command line: runs per experiment and the selected experiment
/// names, lower-cased.
#[derive(Debug, PartialEq)]
struct Args {
    runs: usize,
    selected: Vec<String>,
}

/// Whether the command-line name `name` selects `exp`.
fn selects(name: &str, exp: &Experiment) -> bool {
    name == "all" || exp.names.contains(&name)
}

/// Parses the command line; `Err` carries the message to print before
/// exiting with status 2.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut runs = 3usize;
    let mut selected = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--runs" {
            runs = match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => n,
                _ => return Err("error: --runs needs a positive integer".into()),
            };
            continue;
        }
        let name = arg.to_lowercase();
        if !EXPERIMENTS.iter().any(|exp| selects(&name, exp)) {
            return Err(format!("error: unknown experiment '{name}'\n{USAGE}"));
        }
        selected.push(name);
    }
    if selected.is_empty() {
        return Err(USAGE.into());
    }
    Ok(Args { runs, selected })
}

fn main() {
    let Args { runs, selected } = parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    for exp in EXPERIMENTS
        .iter()
        .filter(|exp| selected.iter().any(|name| selects(name, exp)))
    {
        for summary in summarize(exp, runs) {
            println!("{summary}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_experiments_parse() {
        assert_eq!(
            parse(args(&[
                "micro",
                "FIG9",
                "fig10",
                "Ablations",
                "--runs",
                "5"
            ])),
            Ok(Args {
                runs: 5,
                selected: args(&["micro", "fig9", "fig10", "ablations"]),
            })
        );
    }

    #[test]
    fn retired_experiments_and_flags_are_rejected_with_usage() {
        for argv in [
            &["e13"][..],
            &["conc"],
            &["e20"],
            &["ycsb"],
            &["ablation_checkpoint_deferral"],
            &["crypto_ops"],
            &["e1", "--seed", "7"],
            &["ablations", "--seed", "7"],
            &[],
            &["--runs", "0", "e1"],
        ] {
            let err = parse(args(argv)).expect_err("must be rejected");
            assert!(
                err.contains("usage: report") || err.contains("--runs"),
                "{argv:?}: {err}"
            );
        }
    }
}
