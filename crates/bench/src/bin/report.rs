//! The experiment report binary: regenerates the paper's tables and
//! figures (§9), printing measured rows next to the paper's numbers.
//!
//! ```sh
//! cargo run --release -p tdb-bench --bin report -- all
//! cargo run --release -p tdb-bench --bin report -- e1 e4 fig11
//! cargo run --release -p tdb-bench --bin report -- fig11 --runs 10
//! ```

use tdb_bench::experiments;

const USAGE: &str = "usage: report [--runs N] <experiments...>\n\
     experiments: e1 e2 e3 e4 e5 e6 e7 e8 e9|fig9 e10|fig10 e11|fig11 e12|fig12 | all | micro";

const KNOWN: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "fig9", "fig10",
    "fig11", "fig12", "all", "micro",
];

/// A parsed command line: runs per workload experiment and the selected
/// experiment names, lower-cased.
#[derive(Debug, PartialEq)]
struct Args {
    runs: usize,
    selected: Vec<String>,
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
        if !KNOWN.contains(&name.as_str()) {
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
    let want = |name: &str, aliases: &[&str]| {
        selected.iter().any(|s| {
            s == "all"
                || s == name
                || aliases.contains(&s.as_str())
                || (s == "micro"
                    && matches!(name, "e1" | "e2" | "e3" | "e4" | "e5" | "e6" | "e7" | "e8"))
        })
    };
    if want("e1", &[]) {
        experiments::e1_crypto();
    }
    if want("e2", &[]) {
        experiments::e2_store();
    }
    if want("e3", &[]) {
        experiments::e3_allocate();
    }
    if want("e4", &[]) {
        experiments::e4_commit_regression();
    }
    if want("e5", &[]) {
        experiments::e5_read_regression();
    }
    if want("e6", &[]) {
        experiments::e6_partition_ops();
    }
    if want("e7", &[]) {
        experiments::e7_backup_regression();
    }
    if want("e8", &[]) {
        experiments::e8_space();
    }
    if want("e9", &["fig9"]) {
        experiments::e9_code_complexity();
    }
    if want("e10", &["fig10"]) {
        experiments::e10_op_counts();
    }
    if want("e11", &["fig11"]) {
        experiments::e11_comparison(runs);
    }
    if want("e12", &["fig12"]) {
        experiments::e12_breakdown(runs);
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
            parse(args(&["micro", "FIG9", "fig10", "--runs", "5"])),
            Ok(Args {
                runs: 5,
                selected: args(&["micro", "fig9", "fig10"]),
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
            &["e1", "--seed", "7"],
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
