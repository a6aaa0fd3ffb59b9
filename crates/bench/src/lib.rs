#![forbid(unsafe_code)]
//! Benchmark harness for the TDB reproduction.
//!
//! One module per concern:
//!
//! - [`fixtures`] — store/database constructors for the experiments, in
//!   *raw* (in-memory, fast) and *simulated-1999-disk* (latency-modeled,
//!   reproduces the paper's I/O-dominated shape) modes;
//! - [`regress`] — least-squares fits for the paper's "a + b·chunks +
//!   c·bytes" micro-benchmark decompositions (§9.2.2, §9.2.3);
//! - [`workload`] — the bind/release digital-goods benchmark (§9.5.1),
//!   runnable against TDB and against the layered-crypto XDB baseline;
//! - [`experiments`] — the E1–E12 experiment runners and the design
//!   ablations behind the `report` binary, and the harness that repeats
//!   them and prints each metric's quartiles as one JSON line.
//!
//! The end-to-end benchmark of the default configuration, `tdbmark`
//! (`src/bin/tdbmark/`, run through `BENCHMARK.json`), is a package of
//! its own and imports nothing from this library.

pub mod experiments;
pub mod fixtures;
pub mod regress;
pub mod workload;
