//! # sqlem-perfbench — the repo benchmark
//!
//! One binary, `benchmark`, runs one workload per process and prints
//! every metric `BENCHMARK.json` lists for it, by name and unit, after
//! checking the run's outputs. See `perfbench/README.md` for the
//! workloads, the metrics, and which layer is expected to move which.
//!
//! The package sits outside the repository's workspace and only calls
//! public items of the crates under test: nothing is instrumented
//! inside `sqlengine`, `sqlem` or `sqlwire`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calib;
pub mod env;
pub mod layers;
pub mod procstat;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod workload;
