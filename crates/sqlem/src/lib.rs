//! # sqlem — EM clustering as generated SQL
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Ordonez & Cereghini, *SQLEM: Fast Clustering in SQL using the EM
//! Algorithm*, SIGMOD 2000): a **SQL code generator** that runs the
//! Expectation–Maximization clustering algorithm entirely inside a
//! relational DBMS, plus the small client-side driver that controls the
//! iteration loop.
//!
//! Three strategies are implemented, exactly as §3 describes them:
//!
//! * [`Strategy::Horizontal`] — points stored one row per point with `p`
//!   columns; every computation is a wide projected expression. One scan
//!   per step, but the Mahalanobis-distance expression has `Θ(kp)`
//!   characters and breaks real parsers at high `kp` (§3.3);
//! * [`Strategy::Vertical`] — points stored as `pn` rows `(RID, v, val)`;
//!   everything is joins + `GROUP BY`. Maximally flexible, but the M step
//!   flows through `kpn`-row intermediates (§3.4);
//! * [`Strategy::Hybrid`] — the paper's solution (§3.5): distances
//!   computed vertically into a `k`-column table, probabilities /
//!   responsibilities / parameter updates computed horizontally. One
//!   iteration costs `2k+3` scans of `n`-row tables plus one scan of a
//!   `pn`-row table.
//!
//! The paper's two noted extensions are models of the same loop, not
//! second drivers: [`KmeansGenerator`] (§2.2: EM with W = 1/k, R = I and
//! hard assignments) and [`PerClusterGenerator`] (§2.1: one diagonal Σ
//! per cluster) run through [`EmSession::create_with`].
//!
//! The numerical safeguards of §2.5 are generated into the SQL: the
//! inverse-distance fallback (`CASE WHEN sump>0 … ELSE (1/d)/suminvd END`
//! with the `1.0E-100` guard) and zero-covariance skipping (`CASE WHEN r=0
//! THEN 1 …` in distances, zero-skip in `|R|`).
//!
//! ## Quick start
//!
//! ```
//! use sqlengine::Database;
//! use sqlem::{EmSession, SqlemConfig, Strategy};
//! use emcore::{GmmParams, InitStrategy};
//!
//! // Two obvious 1-d blobs.
//! let mut points: Vec<Vec<f64>> = Vec::new();
//! for i in 0..40 {
//!     points.push(vec![(i % 4) as f64 * 0.1]);
//!     points.push(vec![10.0 + (i % 4) as f64 * 0.1]);
//! }
//!
//! let mut db = Database::new();
//! let config = SqlemConfig::new(2, Strategy::Hybrid);
//! let mut session = EmSession::create(&mut db, &config, 1).unwrap();
//! session.load_points(&points).unwrap();
//! let rough = GmmParams::new(vec![vec![3.0], vec![7.0]], vec![10.0], vec![0.5, 0.5]);
//! session.initialize(&InitStrategy::Explicit(rough)).unwrap();
//! let run = session.run().unwrap();
//! assert_eq!(run.params.k(), 2);
//! let mut means: Vec<f64> = run.params.means.iter().map(|m| m[0]).collect();
//! means.sort_by(f64::total_cmp);
//! assert!((means[0] - 0.15).abs() < 0.2 && (means[1] - 10.15).abs() < 0.2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod error;
pub mod generator;
pub mod loader;
pub mod naming;
pub mod params;
pub mod plan;
pub mod retry;
pub mod sqlfmt;
pub mod summary;
pub mod telemetry;

pub use checkpoint::Checkpoint;
pub use config::{SqlemConfig, Strategy};
pub use driver::{EmSession, RecoveryEvent, SqlemRun};
pub use error::SqlemError;
pub use generator::{build_generator, Generator, KmeansGenerator, PerClusterGenerator, Stmt};
pub use naming::Names;
pub use params::ParamSet;
pub use plan::{
    analyze_all, analyze_generator, analyze_strategy, classify_scan, CostCheck, FallbackDecision,
    IterationCost, PlanError, PlanReport, ScanClass,
};
pub use retry::{RetryPolicy, Retrying};
pub use telemetry::{scan_threshold, IterationReport, StepMetrics};
