//! Spans recorded by the harness around its own calls into each layer.
//!
//! The program under test is not instrumented here: a span is the interval
//! between the harness calling a layer's public function and that function
//! returning, kept in memory and summarised (or dumped with `--spans-out`)
//! after the run. Per-layer latencies are medians over these spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use crate::hist::Hist;

#[derive(Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    /// Index of the operation in its client's stream.
    pub op: u32,
}

/// Nanoseconds since the process's first call, the spans' common clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's span buffer. With `enabled` false every call is a no-op, so
/// the untraced and the traced run execute the same loop.
pub struct Tracer {
    enabled: bool,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, thread: u32, capacity: usize) -> Tracer {
        // Start the common clock no later than the first span does.
        now_ns();
        Tracer {
            enabled,
            thread,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    /// Records a span from `t0` to now.
    #[inline]
    pub fn record(&mut self, layer: &'static str, name: &'static str, op: usize, t0: Instant) {
        if self.enabled {
            self.record_between(layer, name, op, t0, Instant::now());
        }
    }

    /// Records a span whose end the caller read itself, for entry points
    /// that are only classified (hit or miss) after they return.
    #[inline]
    pub fn record_between(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: usize,
        t0: Instant,
        t1: Instant,
    ) {
        if self.enabled {
            let end_ns = now_ns().saturating_sub(t1.elapsed().as_nanos() as u64);
            let len = (t1 - t0).as_nanos() as u64;
            self.spans.push(Span {
                layer,
                name,
                start_ns: end_ns.saturating_sub(len),
                end_ns,
                thread: self.thread,
                op: op as u32,
            });
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(layer, name, op, t0);
        out
    }
}

/// Durations of all spans, grouped by `(layer, name)`.
#[derive(Default)]
pub struct SpanSummary {
    groups: BTreeMap<(&'static str, &'static str), Hist>,
}

impl SpanSummary {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            self.groups
                .entry((s.layer, s.name))
                .or_default()
                .record(s.end_ns - s.start_ns);
        }
    }

    /// Median duration in µs of the spans of one entry point, 0 if the run
    /// never called it.
    pub fn p50_us(&self, layer: &'static str, name: &'static str) -> f64 {
        self.groups
            .get(&(layer, name))
            .map_or(0.0, |h| h.quantile_us(0.5))
    }

    pub fn mean_us(&self, layer: &'static str, name: &'static str) -> f64 {
        self.groups
            .get(&(layer, name))
            .map_or(0.0, |h| h.mean_ns() / 1e3)
    }

    pub fn count(&self, layer: &'static str, name: &'static str) -> u64 {
        self.groups.get(&(layer, name)).map_or(0, Hist::count)
    }

    /// Total time in µs inside the spans of `layers`, except those named
    /// `except` (a span that encloses the others).
    pub fn total_us(&self, layers: &[&str], except: &str) -> f64 {
        self.groups
            .iter()
            .filter(|((layer, name), _)| layers.contains(layer) && *name != except)
            .map(|(_, h)| h.mean_ns() * h.count() as f64 / 1e3)
            .sum()
    }
}

/// Writes spans as CSV, one per line.
pub fn dump_spans(path: &str, workload: &str, spans: &[Span], append: bool) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("write {path}: {e}");
    if !append {
        writeln!(out, "workload,layer,name,thread,op,start_ns,end_ns").map_err(io)?;
    }
    for s in spans {
        writeln!(
            out,
            "{workload},{},{},{},{},{},{}",
            s.layer, s.name, s.thread, s.op, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}

/// Mean cost in ns of one `Instant::now()` + `elapsed()` pair — what every
/// recorded latency includes.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        let t = Instant::now();
        sink += std::hint::black_box(t.elapsed().as_nanos());
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_one_groups_by_entry_point() {
        let mut off = Tracer::new(false, 0, 0);
        off.time("core", "read", 0, || ());
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true, 3, 8);
        on.time("core", "read", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        on.time("core", "commit", 8, || ());
        assert_eq!(on.spans.len(), 2);
        assert_eq!((on.spans[0].thread, on.spans[0].op), (3, 7));
        assert!(on.spans[0].end_ns - on.spans[0].start_ns >= 2_000_000);
        let mut summary = SpanSummary::default();
        summary.add(&on.spans);
        assert!(summary.p50_us("core", "read") >= 2000.0);
        assert_eq!(summary.count("core", "commit"), 1);
        assert_eq!(summary.p50_us("wire", "get"), 0.0);
        assert!(summary.total_us(&["core"], "commit") >= 2000.0);
        assert!(summary.total_us(&["core"], "read") < 1000.0);
    }
}
