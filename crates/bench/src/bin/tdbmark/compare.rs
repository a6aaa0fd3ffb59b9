//! `tdbmark compare`: two reports side by side, one row per workload and
//! end-to-end metric, judged by the bounds in [`crate::spec`].
//!
//! A row is `WORSE` when the second report's median is worse than the
//! first's by more than the metric's bound, and `unresolved` when the
//! run-to-run spread of either side is wider than the bound, because then
//! the two medians cannot be told apart. Quick runs are compared but not
//! judged.

use std::fmt::Write;

use crate::hist;
use crate::json::Json;
use crate::spec::{Better, ALL, END_TO_END};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// One side has no value, or a side ran with `--quick`.
    NotJudged,
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// By how much `b` is worse than `a`, as a share of `a`; negative when
    /// it is better.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Every value of one metric of one workload across a report's runs.
fn values(report: &Json, workload: &str, metric: &str) -> Vec<f64> {
    report
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn is_quick(report: &Json) -> bool {
    report.get("stamp").and_then(|s| s.get("quick")) == Some(&Json::Bool(true))
}

/// Median of a report's values, `None` when it has none.
fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| hist::median(values.to_vec()))
}

/// Distance between the first and third quartile as a share of the median,
/// the quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
/// 0 for fewer than two values, which have no spread to speak of.
pub fn relative_iqr(sorted: &[f64]) -> f64 {
    let len = sorted.len() as i64;
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = i * (len + 1) - j * 4;
        (sorted[j as usize - 1] * (4 - delta) as f64 + sorted[j as usize] * delta as f64) / 4.0
    };
    match median(sorted) {
        Some(m) if m != 0.0 => ((quartile(3) - quartile(1)) / m).abs(),
        _ => 0.0,
    }
}

/// The rows of the comparison and how many of them are `WORSE`.
pub fn compare(a: &Json, b: &Json) -> (Vec<Row>, usize) {
    let judged = !is_quick(a) && !is_quick(b);
    let mut rows = Vec::new();
    for workload in ALL {
        for m in END_TO_END.iter().filter(|m| m.on.contains(workload)) {
            let sorted = |report| {
                let mut v = values(report, workload, m.name);
                v.sort_by(f64::total_cmp);
                v
            };
            let (va, vb) = (sorted(a), sorted(b));
            let (ma, mb) = (median(&va), median(&vb));
            let spread = relative_iqr(&va).max(relative_iqr(&vb));
            let worse_by = match (ma, mb, m.better) {
                (Some(x), Some(y), Better::Lower) if x != 0.0 => (y - x) / x,
                (Some(x), Some(y), Better::Higher) if x != 0.0 => (x - y) / x,
                _ => 0.0,
            };
            let verdict = if !judged || ma.is_none() || mb.is_none() {
                Verdict::NotJudged
            } else if spread > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload,
                metric: m.name,
                unit: m.unit,
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    (rows, worse)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<27} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse", "spread", "bound"
    );
    let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "not judged",
        };
        let _ = writeln!(
            out,
            "{:<18} {:<27} {:>14} {:>14} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict} [{}]",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(quick: bool, throughputs: &[f64], p50s: &[f64]) -> Json {
        let runs = throughputs
            .iter()
            .zip(p50s)
            .map(|(t, p)| {
                let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
                Json::obj([(
                    "workloads",
                    Json::obj([(
                        "kv-read",
                        Json::obj([(
                            "end_to_end",
                            Json::obj([
                                ("throughput_ops_s", metric(*t)),
                                ("read_p50_us", metric(*p)),
                            ]),
                        )]),
                    )]),
                )])
            })
            .collect();
        Json::obj([
            ("stamp", Json::obj([("quick", Json::Bool(quick))])),
            ("runs", Json::Arr(runs)),
        ])
    }

    fn verdict_of<'r>(rows: &'r [Row], metric: &str) -> &'r Verdict {
        &rows
            .iter()
            .find(|r| r.workload == "kv-read" && r.metric == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn quartiles_follow_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16], n=4) == [1.75, 5.5, 12.25]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0];
        assert!((relative_iqr(&v) - (12.25 - 1.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((relative_iqr(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn worse_fails_noisy_is_unresolved_and_quick_is_not_judged() {
        let base = report(false, &[1000.0, 1010.0, 990.0], &[2.0, 2.0, 2.0]);
        let slower = report(false, &[700.0, 710.0, 690.0], &[2.0, 2.01, 1.99]);
        let (rows, worse) = compare(&base, &slower);
        assert_eq!(worse, 1);
        assert_eq!(*verdict_of(&rows, "throughput_ops_s"), Verdict::Worse);
        assert_eq!(*verdict_of(&rows, "read_p50_us"), Verdict::Ok);
        // Direction: more throughput is not worse.
        assert_eq!(compare(&slower, &base).1, 0);

        let noisy = report(false, &[700.0, 1000.0, 1300.0], &[2.0, 2.0, 2.0]);
        let (rows, worse) = compare(&base, &noisy);
        assert_eq!(worse, 0);
        assert_eq!(*verdict_of(&rows, "throughput_ops_s"), Verdict::Unresolved);

        let (rows, worse) = compare(&report(true, &[1000.0], &[2.0]), &slower);
        assert_eq!(worse, 0);
        assert_eq!(*verdict_of(&rows, "throughput_ops_s"), Verdict::NotJudged);
        // Metrics neither report carries are listed but not judged.
        assert!(rows
            .iter()
            .filter(|r| r.workload != "kv-read")
            .all(|r| r.verdict == Verdict::NotJudged));
        assert!(render(&rows).lines().count() > rows.len());
    }
}
