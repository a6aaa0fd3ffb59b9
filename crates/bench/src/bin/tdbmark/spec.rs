//! The benchmark's fixed vocabulary: workload names and reasons, metric
//! names with unit, direction and bound. `BENCHMARK.json` at the repository
//! root repeats them; a unit test keeps the two in step. Which end-to-end
//! metric each per-layer metric is expected to move is in `README.md`.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// The five workloads, in the order they run. Why each exists is in
/// `BENCHMARK.json` and `README.md`.
pub const ALL: &[&str] = &[
    "kv-read",
    "kv-update",
    "goods-txn",
    "net-read-verified",
    "net-update",
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
    /// Workloads that report it.
    pub on: &'static [&'static str],
    /// Whether it is in the contract's `end_to_end` list, which needs every
    /// workload to report the metric and its spread over ten seeds to stay
    /// inside the bound. The others - a read-only workload has no write
    /// latency, and the median and 99th percentile of reads and the 40 to
    /// 140 ms of a reopen swing with the host's speed by more than any bound
    /// the contract allows - are listed there, informationally, with the
    /// per-layer metrics; `compare` and `repeat` judge all of them.
    pub contract: bool,
}

const READERS: &[&str] = &["kv-read", "kv-update", "net-read-verified", "net-update"];
const WRITERS: &[&str] = &["kv-update", "net-update"];
const TXN: &[&str] = &["goods-txn"];

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on: ALL,
        contract: true,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        on: ALL,
        contract: true,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: READERS,
        contract: false,
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: READERS,
        contract: false,
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        on: ALL,
        contract: true,
    },
    EndToEnd {
        name: "recovery_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        on: ALL,
        contract: false,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: WRITERS,
        contract: false,
    },
    EndToEnd {
        name: "write_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: WRITERS,
        contract: false,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: TXN,
        contract: false,
    },
    EndToEnd {
        name: "txn_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: TXN,
        contract: false,
    },
];

/// The per-layer metrics, `(name, unit)`. A workload that never enters the
/// entry point reports 0.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str); 58] = [
    ("storage.reads_per_get", "count"),
    ("storage.bytes_read_per_get", "bytes"),
    ("storage.writes_per_commit", "count"),
    ("storage.flushes_per_commit", "count"),
    ("storage.trusted_writes_per_commit", "count"),
    ("storage.bytes_written_per_user_byte", "ratio"),
    ("storage.busy_share", "ratio"),
    ("storage.sleep_overshoot_us", "us"),
    ("crypto.decrypt_us_per_record", "us"),
    ("crypto.hash_us_per_record", "us"),
    ("crypto.encrypt_us_per_record", "us"),
    ("crypto.system_encrypt_us_per_kb", "us"),
    ("crypto.mac_us", "us"),
    ("core.read_hit_us", "us"),
    ("core.read_miss_us", "us"),
    ("core.self_read_miss_us", "us"),
    ("core.commit_us", "us"),
    ("core.self_commit_us", "us"),
    ("core.checkpoint_ms", "ms"),
    ("core.clean_ms_per_segment", "ms"),
    ("core.proof_read_us", "us"),
    ("core.recovery_ms_per_1k_commits", "ms"),
    ("object.get_hit_us", "us"),
    ("object.self_get_hit_us", "us"),
    ("object.cache_hit_ratio", "ratio"),
    ("object.get_miss_us", "us"),
    ("object.put_commit_us", "us"),
    ("object.self_put_commit_us", "us"),
    ("collection.lookup_us", "us"),
    ("collection.range_us_per_member", "us"),
    ("collection.insert_us", "us"),
    ("collection.remove_us", "us"),
    ("session.self_get_us", "us"),
    ("session.self_put_us", "us"),
    ("session.self_txn_us", "us"),
    ("wire.codec_us_per_get", "us"),
    ("wire.codec_us_per_put", "us"),
    ("wire.codec_us_per_verified_get", "us"),
    ("wire.request_bytes_per_op", "bytes"),
    ("wire.response_bytes_per_op", "bytes"),
    ("wire.proof_bytes_per_verified_get", "bytes"),
    ("server.ping_rtt_us", "us"),
    ("server.self_get_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("client.verify_us_per_get", "us"),
    ("trace.overhead_pct", "%"),
    ("harness.timer_ns", "ns"),
    ("process.peak_rss_mb", "MiB"),
    // End-to-end metrics outside the contract's list (see `EndToEnd::contract`);
    // the traced run reports the latencies from its untraced pass and the
    // reopen time from the database of its traced one.
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("recovery_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.fraction", "ratio"),
];

/// The contract's `end_to_end` list.
pub fn contract() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.contract)
}

/// How one run is sized and seeded.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window the op counts are calibrated for.
    pub seconds: f64,
    /// 1/20 of the op counts, for smoke runs; bounds do not apply.
    pub quick: bool,
    /// Most load-generator threads a workload may use: 1 on a single core.
    pub max_clients: usize,
}

/// The traced run replays this share of the op stream at each entry point.
/// Shrink this, not the measured runs, if an invocation outgrows its cap.
pub const TRACE_FRACTION: f64 = 0.25;

impl RunCfg {
    /// Ops per client for a workload calibrated at `per_second` ops per
    /// client and second of window on the reference sandbox.
    pub fn ops(&self, per_second: f64) -> usize {
        let scale = if self.quick { 0.05 } else { 1.0 };
        ((per_second * self.seconds * scale) as usize).max(40)
    }

    /// The same for the traced run's shorter replays.
    pub fn traced_ops(&self, per_second: f64) -> usize {
        ((self.ops(per_second) as f64 * TRACE_FRACTION) as usize).max(40)
    }
}

/// What one run of one workload produced.
#[derive(Default, Debug, Clone)]
pub struct RunResult {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind each percentile, and other counts worth printing.
    pub counts: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the measured window in seconds.
    pub window_s: f64,
    /// First few failures, for the report.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    pub fn absorb_failures(&mut self, failed: u64, failures: &[String]) {
        self.failed += failed;
        for f in failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = ALL
            .iter()
            .copied()
            .chain(contract().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        // An end-to-end metric is in the contract's list or reappears in
        // the per-layer list; the contract's are reported by every workload.
        for m in &END_TO_END {
            assert_ne!(m.contract, PER_LAYER.iter().any(|p| p.0 == m.name));
            assert!(!m.contract || m.on == ALL, "{}", m.name);
            assert!(m.bound <= 0.25);
        }
    }
}
