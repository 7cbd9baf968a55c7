//! # sqlengine — a from-scratch in-memory relational SQL engine
//!
//! This crate is the DBMS substrate for the SQLEM reproduction (Ordonez &
//! Cereghini, SIGMOD 2000). The paper runs EM clustering *inside* a
//! relational DBMS by generating plain SQL; its performance story rests on
//! the database executing that SQL with hash joins, hash aggregation and
//! predictable table scans. This engine provides exactly those mechanics:
//!
//! * a SQL dialect covering the paper's generated statements (`CREATE`/
//!   `DROP TABLE`, `INSERT … SELECT`, multi-table `SELECT` with `GROUP BY`,
//!   `UPDATE … FROM` with sequential `SET`, `CASE WHEN`, `exp`/`ln`, the
//!   Teradata `**` power operator, scientific literals like `1.0E-100`);
//! * a batch-at-a-time left-deep **hash-join** pipeline — 1024-row
//!   batches of typed columns, expressions evaluated once per batch —
//!   that never materializes intermediate join results (§ [`exec`]);
//! * **hash aggregation** with SQL NULL semantics;
//! * **primary-key hash indexes** with uniqueness enforcement, which also
//!   serve joins on the full key — the index, the GROUP BY table and a
//!   join's build side are one hash table over typed key columns
//!   ([`keytable`]);
//! * **scan accounting** ([`metrics::ExecMetrics`], cross-checked by the
//!   static [`plancheck`] derivation) so the paper's `2k+3`-scans-per-
//!   iteration cost model can be verified programmatically;
//! * a configurable **statement length limit** modelling the parser caps
//!   that motivate the paper's hybrid strategy.
//!
//! ## Quick start
//!
//! ```
//! use sqlengine::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE)").unwrap();
//! db.execute("INSERT INTO yd VALUES (1, 0.5, 2.0), (2, 4.0, 0.1)").unwrap();
//! let r = db
//!     .execute("SELECT rid, exp(-0.5 * d1) AS p1 FROM yd ORDER BY rid")
//!     .unwrap();
//! assert_eq!(r.rows.len(), 2);
//! assert!(matches!(r.rows[0][1], Value::Double(_)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod exactsum;
pub mod exec;
pub mod executor;
pub mod expr;
pub mod fault;
pub mod keytable;
pub mod lexer;
pub mod metrics;
pub mod parser;
pub mod plan;
pub mod plancheck;
pub mod resource;
pub mod schema;
pub mod storage;
pub mod table;
pub mod value;
pub mod wal;

pub use analyze::{
    AnalyzeError, AnalyzeErrorKind, Clause, Limits, Metric, Report, SymbolicCatalog,
};
pub use engine::{
    is_mutating, Database, DurabilityOptions, EngineConfig, SharedDatabase, WalRecovery,
};
pub use error::{Error, Result};
pub use exactsum::ExactSum;
pub use exec::aggregate::{AggCell, PartialAggResult, PartialBuilder};
pub use exec::QueryResult;
pub use executor::{
    check_statement_len, prepare_statements, Kept, PrepareError, PreparedId, SqlExecutor,
};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultSite, Injection};
pub use metrics::{ExecMetrics, MetricsLog, ScanMetric, StatementKind, StmtProbe};
pub use plancheck::{
    check_script, Card, CheckEnv, DerivedScan, Diagnostic, DiagnosticKind, IterationDerivation,
    ScriptReport, ScriptSpec, ScriptStmt, Severity, StmtReport, SymState, TableLoad,
};
pub use resource::{MemoryBudget, ResourceTracker};
pub use schema::{Column, Schema};
pub use table::Row;
pub use value::{DataType, Value};
