//! `tdbmark`: the repository's canonical benchmark. Five seeded, closed-loop
//! workloads against the default configuration, end-to-end metrics measured
//! with tracing off, per-layer metrics from a separate traced run, and a
//! self-check of every reply. See `README.md` beside this file.
//!
//! ```text
//! tdbmark run [--workload W] [--seed A,B,..] [--seconds S] [--trace 0|1]
//!             [--quick] [--out FILE] [--spans-out FILE]
//! tdbmark compare A.json B.json
//! tdbmark repeat [--sets 2] [--seed 1,2] [--quick] [--seconds S]
//! ```
//!
//! With `--workload` the last line of standard output is the one JSON
//! object the benchmark contract asks for; without it all five workloads
//! run in turn and `--out` receives the full report.

mod compare;
mod device;
mod gen;
mod goods;
mod hist;
mod json;
mod kv;
mod ladder;
mod spec;
mod trace;
mod world;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use spec::{RunCfg, RunResult, ALL, END_TO_END, PER_LAYER, TRACE_FRACTION};
use trace::Span;

/// Length of the measured window the driver asks for; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<String>,
    spans_out: Option<String>,
    sets: usize,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seeds: vec![1],
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: None,
        spans_out: None,
        sets: 2,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{arg}: {text:?} is not a number"))
        };
        let seeds = |text: String| {
            text.split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {s:?}"))
                })
                .collect::<Result<Vec<_>, _>>()
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => parsed.seeds = seeds(value("a seed")?)?,
            "--seconds" => parsed.seconds = number(value("a number of seconds")?)?,
            "--trace" => parsed.traced = number(value("0 or 1")?)? != 0.0,
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value("a file")?),
            "--spans-out" => parsed.spans_out = Some(value("a file")?),
            "--sets" => parsed.sets = number(value("a count")?)? as usize,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => parsed.files.push(file.to_string()),
        }
    }
    if parsed.seeds.is_empty() || parsed.seconds <= 0.0 {
        return Err("need at least one seed and a positive --seconds".into());
    }
    if let Some(w) = &parsed.workload {
        if !ALL.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {ALL:?}"));
        }
    }
    Ok(parsed)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cfg_for(args: &Args, seed: u64) -> RunCfg {
    RunCfg {
        seed,
        seconds: args.seconds,
        quick: args.quick,
        // One load generator where two would share a core.
        max_clients: if nproc() < 2 { 1 } else { usize::MAX },
    }
}

fn run_workload(name: &str, cfg: &RunCfg, traced: bool) -> Result<(RunResult, Vec<Span>), String> {
    let kv_spec = match name {
        "kv-read" => &kv::KV_READ,
        "kv-update" => &kv::KV_UPDATE,
        "net-read-verified" => &kv::NET_READ_VERIFIED,
        "net-update" => &kv::NET_UPDATE,
        "goods-txn" => {
            return if traced {
                goods::run_traced(cfg)
            } else {
                goods::run_untraced(cfg).map(|r| (r, Vec::new()))
            };
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    if traced {
        ladder::run_traced(kv_spec, cfg)
    } else {
        kv::run_untraced(kv_spec, cfg).map(|r| (r, Vec::new()))
    }
}

fn clients_of(workload: &str, cfg: &RunCfg) -> usize {
    match workload {
        "kv-read" => kv::clients(&kv::KV_READ, cfg),
        "kv-update" => kv::clients(&kv::KV_UPDATE, cfg),
        "net-read-verified" => kv::clients(&kv::NET_READ_VERIFIED, cfg),
        "net-update" => kv::clients(&kv::NET_UPDATE, cfg),
        _ => 1,
    }
}

/// `(name, unit)` of every metric a run of `workload` prints.
fn printed_metrics(workload: &str, traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.on.contains(&workload))
            .map(|m| (m.name, m.unit))
            .collect()
    }
}

/// Metrics as `{"name": {"value": v, "unit": u}}`, only names in `wanted`.
/// A per-layer metric the run did not produce is 0: the workload never
/// entered that entry point. An end-to-end metric it did not produce, or a
/// metric outside the vocabulary, is an error.
fn metrics_json(
    result: &RunResult,
    wanted: &[(&'static str, &'static str)],
    traced: bool,
) -> Result<Json, String> {
    if let Some(stray) = result.metrics.keys().find(|k| {
        !END_TO_END.iter().any(|m| m.name == **k) && !PER_LAYER.iter().any(|m| m.0 == **k)
    }) {
        return Err(format!("the run produced an unknown metric {stray}"));
    }
    let mut pairs = Vec::new();
    for (name, unit) in wanted {
        let value = match result.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("the run produced no {name}")),
        };
        pairs.push((
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        ));
    }
    Ok(Json::obj(pairs))
}

fn print_result(workload: &str, traced: bool, result: &RunResult) {
    let kind = if traced { "traced" } else { "untraced" };
    println!(
        "{workload} ({kind}): attempted {} failed {} window {:.2} s",
        result.attempted, result.failed, result.window_s
    );
    for (name, unit) in printed_metrics(workload, traced) {
        match result.metrics.get(name) {
            Some(v) => println!("  {name:<38} {v:>16.4} {unit}"),
            None if traced => println!("  {name:<38} {:>16.4} {unit}", 0.0),
            None => {}
        }
    }
    for (name, count) in &result.counts {
        println!("  {name:<38} {count:>16}");
    }
    for failure in &result.failures {
        println!("  FAILED: {failure}");
    }
}

fn git_rev() -> String {
    // The ceiling keeps git from searching above the working directory for
    // a repository: the benchmark reads nothing outside its checkout.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn stamp(args: &Args, started: Instant) -> Json {
    let cfg = cfg_for(args, 0);
    Json::obj([
        ("git_rev", Json::str(git_rev())),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "clients",
            Json::obj(
                ALL.iter()
                    .map(|w| (*w, Json::Num(clients_of(w, &cfg) as f64))),
            ),
        ),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("trace_fraction", Json::Num(TRACE_FRACTION)),
        ("timer_ns", Json::Num(trace::timer_pair_ns())),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ])
}

/// One workload as the benchmark contract wants it: the human-readable
/// lines, then one JSON object on the last line.
fn run_contract(args: &Args, workload: &str) -> ExitCode {
    let cfg = cfg_for(args, args.seeds[0]);
    println!(
        "tdbmark {workload} seed {} seconds {} trace {} clients {} nproc {} rev {}",
        cfg.seed,
        cfg.seconds,
        u8::from(args.traced),
        clients_of(workload, &cfg),
        nproc(),
        git_rev()
    );
    let (mut result, spans) = match run_workload(workload, &cfg, args.traced) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tdbmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.spans_out {
        if let Err(e) = trace::dump_spans(path, workload, &spans, false) {
            eprintln!("tdbmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    print_result(workload, args.traced, &result);
    let wanted: Vec<_> = if args.traced {
        printed_metrics(workload, true)
    } else {
        spec::contract().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = match metrics_json(&result, &wanted, args.traced) {
        Ok(m) => m,
        Err(e) => {
            result.fail(|| e);
            Json::obj::<String>([])
        }
    };
    let correct = result.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload for every seed, one after the other. Returns the report
/// and whether every self-check passed.
fn run_all(args: &Args, label: &str) -> Result<(Json, bool), String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut clean = true;
    let mut first_dump = true;
    for &seed in &args.seeds {
        let cfg = cfg_for(args, seed);
        let mut workloads = Vec::new();
        for workload in ALL {
            println!("--- {label}seed {seed}: {workload}");
            let (result, _) = run_workload(workload, &cfg, false)?;
            print_result(workload, false, &result);
            clean &= result.failed == 0;
            let mut entry = vec![
                (
                    "end_to_end",
                    metrics_json(&result, &printed_metrics(workload, false), false)?,
                ),
                ("ops_attempted", Json::Num(result.attempted as f64)),
                ("ops_failed", Json::Num(result.failed as f64)),
                ("window_s", Json::Num(result.window_s)),
                (
                    "counts",
                    Json::obj(
                        result
                            .counts
                            .iter()
                            .map(|(k, v)| (*k, Json::Num(*v as f64))),
                    ),
                ),
            ];
            if args.traced {
                let (traced, spans) = run_workload(workload, &cfg, true)?;
                print_result(workload, true, &traced);
                clean &= traced.failed == 0;
                entry.push((
                    "per_layer",
                    metrics_json(&traced, &printed_metrics(workload, true), true)?,
                ));
                if let Some(path) = &args.spans_out {
                    trace::dump_spans(path, workload, &spans, !first_dump)?;
                    first_dump = false;
                }
            }
            workloads.push((*workload, Json::obj(entry)));
        }
        runs.push(Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(workloads)),
        ]));
    }
    let report = Json::obj([
        ("tool", Json::str("tdbmark")),
        // This benchmark measures; it claims no gain for any change.
        ("claim", Json::Null),
        ("stamp", stamp(args, started)),
        ("runs", Json::Arr(runs)),
    ]);
    Ok((report, clean))
}

fn cmd_run(args: &Args) -> ExitCode {
    if let Some(workload) = &args.workload {
        return run_contract(args, workload);
    }
    match run_all(args, "") {
        Ok((report, clean)) => {
            let text = report.encode();
            if let Some(path) = &args.out {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("tdbmark: write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{text}");
            if clean {
                ExitCode::SUCCESS
            } else {
                eprintln!("tdbmark: the self-check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tdbmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_compare(args: &Args) -> ExitCode {
    let [a, b] = args.files.as_slice() else {
        eprintln!("usage: tdbmark compare A.json B.json");
        return ExitCode::FAILURE;
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => report_comparison(&a, &b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("tdbmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_comparison(a: &Json, b: &Json) -> ExitCode {
    let (rows, worse) = compare::compare(a, b);
    print!("{}", compare::render(&rows));
    if worse > 0 {
        println!("{worse} metric(s) worse than their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs everything `--sets` times with the same seeds and holds each later
/// set against the first with the benchmark's own bounds.
fn cmd_repeat(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for set in 0..args.sets.max(2) {
        match run_all(args, &format!("set {set}, ")) {
            Ok((report, true)) => sets.push(report),
            Ok((_, false)) => {
                eprintln!("tdbmark: the self-check failed in set {set}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("tdbmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut code = ExitCode::SUCCESS;
    for (i, later) in sets.iter().enumerate().skip(1) {
        println!("=== set 0 against set {i}");
        if report_comparison(&sets[0], later) != ExitCode::SUCCESS {
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: tdbmark run|compare|repeat [options]; see README.md");
        return ExitCode::FAILURE;
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tdbmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "repeat" => cmd_repeat(&args),
        other => {
            eprintln!("tdbmark: unknown command {other:?}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract file at the repository root, wherever this is built.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("a name").into())
            .collect()
    }

    #[test]
    fn printed_metric_names_are_exactly_those_of_benchmark_json() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(names(doc.get("workloads").unwrap()), ALL);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );

        let universal: Vec<_> = spec::contract().collect();
        let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(
            names(doc.get("end_to_end").unwrap()),
            universal.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in listed.iter().zip(&universal) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = match m.better {
                spec::Better::Lower => "lower",
                spec::Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(
            names(doc.get("per_layer").unwrap()),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.1),
                "{}",
                m.0
            );
        }

        // What a run prints: each name once, all well-formed, and for every
        // workload exactly the file's lists.
        for workload in ALL {
            let traced: Vec<_> = printed_metrics(workload, true)
                .into_iter()
                .map(|m| m.0)
                .collect();
            assert_eq!(traced, names(doc.get("per_layer").unwrap()));
            let printed: BTreeSet<_> = printed_metrics(workload, false)
                .into_iter()
                .map(|m| m.0)
                .collect();
            for name in names(doc.get("end_to_end").unwrap()) {
                assert!(
                    printed.contains(&name[..]),
                    "{workload} does not print {name}"
                );
            }
            for name in printed.iter().chain(&traced) {
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
            assert_eq!(printed.len(), printed_metrics(workload, false).len());
        }
    }

    #[test]
    fn arguments_parse_the_way_the_driver_passes_them() {
        let argv: Vec<String> = "--workload net-update --seed 7 --seconds 8 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("net-update"));
        assert_eq!(
            (args.seeds, args.seconds, args.traced),
            (vec![7], 8.0, true)
        );
        assert!(!parse_args(&["--trace".into(), "0".into()]).unwrap().traced);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
