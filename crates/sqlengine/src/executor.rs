//! The [`SqlExecutor`] abstraction: everything a SQLEM client needs
//! from "a database", whether it is linked in-process or reached over
//! a network.
//!
//! The paper's architecture is two-tier (§1.4): a small workstation
//! program generates SQL and *submits* it to the DBMS, which does all
//! heavy computation. This trait is the submission seam. The in-process
//! [`Database`] implements it directly; `sqlwire::RemoteConnection`
//! implements it over a TCP wire protocol; the SQLEM driver
//! (`sqlem::EmSession`) is generic over it, so the same EM loop runs
//! embedded or client/server without changing a line.
//!
//! The surface is deliberately narrow and transport-friendly:
//!
//! * statements are submitted as text ([`SqlExecutor::execute`]) or
//!   prepared once and replayed by numeric id
//!   ([`SqlExecutor::prepare_script`] / [`SqlExecutor::run_prepared`]),
//!   the JDBC-prepared-statement analogue the paper's client used;
//! * bulk loads move rows, not SQL ([`SqlExecutor::bulk_insert_rows`]
//!   — the FastLoad analogue);
//! * the engine's capacity limits and catalog are *queried*, never
//!   assumed, so pre-flight linting sees the server's real
//!   configuration;
//! * per-statement metrics are pulled by range
//!   ([`SqlExecutor::metrics_since`]), which a remote server satisfies
//!   from a per-session buffer.

use crate::analyze::{Limits, SymbolicCatalog};
use crate::ast::Statement;
use crate::engine::{Database, SharedDatabase};
use crate::error::{Error, Result};
use crate::exec::QueryResult;
use crate::metrics::ExecMetrics;
use crate::parser::parse;
use crate::plan::StatementPlan;
use crate::value::Value;

/// Handle to one statement registered via [`SqlExecutor::prepare_script`].
///
/// Ids are scoped to the executor (and, for a remote connection, to the
/// session) that issued them; [`SqlExecutor::clear_prepared`]
/// invalidates all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreparedId(pub u64);

/// A script failed to prepare: the first offending statement's index
/// plus the engine (or transport) error.
///
/// Preparation replays the script's DDL symbolically, so a failure at
/// `index` means statements `0..index` were fine and nothing was
/// registered.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareError {
    /// 0-based index into the submitted statement list.
    pub index: usize,
    /// What went wrong with that statement.
    pub error: Error,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "statement {}: {}", self.index, self.error)
    }
}

impl std::error::Error for PrepareError {}

/// Fail `sql` if it is longer than `max` bytes: the statement-length
/// cap (§1.3 parser limits), applied wherever SQL text enters an
/// executor.
pub fn check_statement_len(sql: &str, max: usize) -> Result<()> {
    if sql.len() > max {
        return Err(Error::StatementTooLong {
            len: sql.len(),
            max,
        });
    }
    Ok(())
}

/// Prepare a script of one statement per entry against `catalog`,
/// entry by entry, so later entries see earlier entries' DDL. This is
/// [`SqlExecutor::prepare_script`] for every executor that prepares
/// locally — the engine and the shard coordinator — so both accept and
/// reject the same scripts with the same errors.
///
/// Each entry is length-checked, parsed and analyzed
/// ([`SymbolicCatalog::apply`]); then `keep` gets its text, its
/// statement, the plan the analysis made
/// ([`crate::analyze::Report::plan`]) and the catalog after the entry —
/// for all but DDL, the one it was analyzed against — and returns what
/// the caller keeps of it, so a script's ASTs are never all alive at
/// once. An error from `keep` fails the script at that entry.
pub fn prepare_statements<T>(
    mut catalog: SymbolicCatalog,
    statements: &[String],
    max_len: usize,
    limits: &Limits,
    mut keep: impl FnMut(&str, Statement, StatementPlan, &SymbolicCatalog) -> Result<T>,
) -> std::result::Result<Vec<T>, PrepareError> {
    statements
        .iter()
        .enumerate()
        .map(|(index, sql)| {
            let fail = |error| PrepareError { index, error };
            check_statement_len(sql, max_len).map_err(fail)?;
            let mut parsed = parse(sql).map_err(fail)?;
            let mut plan = StatementPlan::Utility;
            for stmt in &parsed {
                plan = catalog
                    .apply(stmt, limits)
                    .map_err(|e| fail(Error::Analyze(e.locate(sql))))?
                    .plan;
            }
            if parsed.len() != 1 {
                return Err(fail(Error::Unsupported(format!(
                    "prepare_script: expected exactly one statement per entry, got {}",
                    parsed.len()
                ))));
            }
            keep(sql, parsed.pop().expect("length checked"), plan, &catalog).map_err(fail)
        })
        .collect()
}

/// A SQL execution endpoint: the in-process [`Database`], a locked
/// [`SharedDatabase`], or a remote server connection.
///
/// Methods take `&mut self` even where the in-process implementation
/// would not need it, because a remote implementation performs I/O and
/// may buffer. All results are transport-exact: a remote implementation
/// must return bit-identical [`Value`]s (doubles travel as raw IEEE-754
/// bits), which is what makes remote EM runs reproduce in-process runs
/// exactly.
pub trait SqlExecutor {
    /// Execute one or more `;`-separated statements; returns the result
    /// of the last one (see [`Database::execute`]).
    fn execute(&mut self, sql: &str) -> Result<QueryResult>;

    /// Parse + analyze a script for repeated execution, one statement
    /// per element, replaying DDL effects through a shared symbolic
    /// catalog (see [`prepare_statements`]). Returns one id per
    /// statement, valid until [`SqlExecutor::clear_prepared`].
    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError>;

    /// Execute a statement prepared by [`SqlExecutor::prepare_script`].
    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult>;

    /// Drop every prepared statement this executor holds; outstanding
    /// [`PreparedId`]s become invalid.
    fn clear_prepared(&mut self) -> Result<()>;

    /// Bulk-load rows into `table` without going through the SQL parser
    /// (see [`Database::bulk_insert`]). Returns the rows inserted.
    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize>;

    /// Number of rows in `table` (error if it does not exist).
    fn table_rows(&mut self, table: &str) -> Result<usize>;

    /// Does `table` exist?
    fn has_table(&mut self, table: &str) -> Result<bool>;

    /// Snapshot the current table schemas for symbolic DDL replay
    /// (pre-flight linting against the *server's* catalog).
    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog>;

    /// The engine's statement-length cap (§1.3 parser limits). Remote
    /// implementations report the server's value from the handshake.
    fn max_statement_len(&self) -> usize;

    /// The engine's semantic-analysis limits (term count, depth, …).
    fn analyze_limits(&self) -> Limits;

    /// The working-memory budget this executor enforces, in bytes, when
    /// one is installed and introspectable: the in-process engine
    /// reports its configured [`crate::MemoryBudget`] limit, remote
    /// implementations default to `None`. Informational only — no
    /// analysis judges a script against it; a budget is enforced at
    /// execution time, where a statement that does not fit fails with
    /// a typed transient `ResourceExhausted` error.
    fn memory_budget_bytes(&self) -> Option<u64> {
        None
    }

    /// Execute one aggregate `SELECT` up to — but not including — the
    /// accumulator finalize step, returning the exact per-group partial
    /// states (see [`Database::execute_partial`]). A cluster coordinator
    /// merges partials from every shard and finalizes once, which is
    /// what makes sharded aggregates bit-identical to single-node runs.
    /// Executors that cannot scatter default to `Unsupported`.
    fn execute_partial(&mut self, sql: &str) -> Result<crate::PartialAggResult> {
        let _ = sql;
        Err(crate::Error::Unsupported(
            "this executor does not support partial aggregate execution".into(),
        ))
    }

    /// Tell the engine the next statement is a *retry* of the one that
    /// just failed (fault-injection sequence-number bookkeeping; see
    /// [`Database::note_statement_retry`]).
    fn note_statement_retry(&mut self);

    /// Start (`true`) or stop (`false`) recording one [`ExecMetrics`]
    /// per executed statement.
    fn set_metrics_enabled(&mut self, on: bool) -> Result<()>;

    /// Is per-statement metrics recording currently on?
    fn metrics_enabled(&self) -> bool;

    /// Number of metrics entries recorded so far (monotone while
    /// enabled; used as the cursor for [`SqlExecutor::metrics_since`]).
    fn metrics_len(&mut self) -> Result<usize>;

    /// The metrics entries recorded at positions `from..`, in order.
    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>>;

    /// One-line human description of the endpoint ("in-process
    /// database", "remote server at host:port"), for logs.
    fn describe(&self) -> String;
}

impl SqlExecutor for Database {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        Database::execute(self, sql)
    }

    fn execute_partial(&mut self, sql: &str) -> Result<crate::PartialAggResult> {
        Database::execute_partial(self, sql)
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        let ids = self.register_script(statements)?;
        Ok(ids.into_iter().map(PreparedId).collect())
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        self.run_registered(id.0)
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.clear_registered_prepared();
        Ok(())
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.bulk_insert(table, rows)
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        self.table_len(table)
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        Ok(self.contains_table(table))
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        Ok(self.symbolic_catalog())
    }

    fn max_statement_len(&self) -> usize {
        self.config().max_statement_len
    }

    fn analyze_limits(&self) -> Limits {
        self.config().limits.clone()
    }

    fn memory_budget_bytes(&self) -> Option<u64> {
        self.config().memory_budget.as_ref().map(|b| b.limit())
    }

    fn note_statement_retry(&mut self) {
        Database::note_statement_retry(self);
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        if on {
            self.enable_metrics();
        } else {
            self.disable_metrics();
        }
        Ok(())
    }

    fn metrics_enabled(&self) -> bool {
        self.metrics().is_enabled()
    }

    fn metrics_len(&mut self) -> Result<usize> {
        Ok(self.metrics().len())
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        let entries = self.metrics().entries();
        Ok(entries[from.min(entries.len())..].to_vec())
    }

    fn describe(&self) -> String {
        "in-process database".to_string()
    }
}

impl SqlExecutor for SharedDatabase {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.with(|db| SqlExecutor::execute(db, sql))
    }

    fn execute_partial(&mut self, sql: &str) -> Result<crate::PartialAggResult> {
        self.with(|db| Database::execute_partial(db, sql))
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        self.with(|db| SqlExecutor::prepare_script(db, statements))
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        self.with(|db| SqlExecutor::run_prepared(db, id))
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.with(SqlExecutor::clear_prepared)
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.with(|db| db.bulk_insert(table, rows))
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        self.with(|db| db.table_len(table))
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        self.with(|db| Ok(db.contains_table(table)))
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        self.with(|db| Ok(db.symbolic_catalog()))
    }

    fn max_statement_len(&self) -> usize {
        self.with(|db| db.config().max_statement_len)
    }

    fn analyze_limits(&self) -> Limits {
        self.with(|db| db.config().limits.clone())
    }

    fn memory_budget_bytes(&self) -> Option<u64> {
        self.with(|db| db.config().memory_budget.as_ref().map(|b| b.limit()))
    }

    fn note_statement_retry(&mut self) {
        self.with(Database::note_statement_retry)
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        self.with(|db| SqlExecutor::set_metrics_enabled(db, on))
    }

    fn metrics_enabled(&self) -> bool {
        self.with(|db| db.metrics().is_enabled())
    }

    fn metrics_len(&mut self) -> Result<usize> {
        self.with(|db| Ok(db.metrics().len()))
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        self.with(|db| SqlExecutor::metrics_since(db, from))
    }

    fn describe(&self) -> String {
        "shared in-process database".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec_via_trait(db: &mut dyn SqlExecutor) {
        db.execute("CREATE TABLE t (i BIGINT PRIMARY KEY, v DOUBLE)")
            .unwrap();
        db.bulk_insert_rows(
            "t",
            vec![
                vec![Value::Int(1), Value::Double(0.5)],
                vec![Value::Int(2), Value::Double(1.5)],
            ],
        )
        .unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 2);
        assert!(db.has_table("t").unwrap());
        assert!(!db.has_table("nope").unwrap());
        let r = db.execute("SELECT sum(v) FROM t").unwrap();
        assert_eq!(r.scalar_f64(), Some(2.0));
    }

    #[test]
    fn database_implements_the_trait() {
        let mut db = Database::new();
        exec_via_trait(&mut db);
        assert!(db.max_statement_len() > 0);
    }

    #[test]
    fn shared_database_implements_the_trait() {
        let mut db = SharedDatabase::default();
        exec_via_trait(&mut db);
    }

    #[test]
    fn prepared_script_replays_by_id() {
        let mut db = Database::new();
        SqlExecutor::execute(&mut db, "CREATE TABLE acc (i BIGINT PRIMARY KEY, v DOUBLE)").unwrap();
        let ids = SqlExecutor::prepare_script(
            &mut db,
            &[
                "DELETE FROM acc".to_string(),
                "INSERT INTO acc VALUES (1, 2.0)".to_string(),
                "SELECT sum(v) FROM acc".to_string(),
            ],
        )
        .unwrap();
        assert_eq!(ids.len(), 3);
        for _ in 0..3 {
            for id in &ids[..2] {
                SqlExecutor::run_prepared(&mut db, *id).unwrap();
            }
            let r = SqlExecutor::run_prepared(&mut db, ids[2]).unwrap();
            assert_eq!(r.scalar_f64(), Some(2.0));
        }
        SqlExecutor::clear_prepared(&mut db).unwrap();
        assert!(SqlExecutor::run_prepared(&mut db, ids[0]).is_err());
    }

    #[test]
    fn prepare_script_sees_scripted_ddl_and_reports_index() {
        let mut db = Database::new();
        // Statement 1 references the table statement 0 creates.
        let ids = SqlExecutor::prepare_script(
            &mut db,
            &[
                "CREATE TABLE fresh (i BIGINT)".to_string(),
                "INSERT INTO fresh VALUES (1)".to_string(),
            ],
        )
        .unwrap();
        assert_eq!(ids.len(), 2);
        // A bad statement names its index; nothing gets registered.
        let err = SqlExecutor::prepare_script(
            &mut db,
            &[
                "CREATE TABLE other (i BIGINT)".to_string(),
                "INSERT INTO missing VALUES (1)".to_string(),
            ],
        )
        .unwrap_err();
        assert_eq!(err.index, 1);
    }

    #[test]
    fn metrics_cursor_via_trait() {
        let mut db = Database::new();
        SqlExecutor::set_metrics_enabled(&mut db, true).unwrap();
        assert!(SqlExecutor::metrics_enabled(&db));
        SqlExecutor::execute(&mut db, "CREATE TABLE m (i BIGINT)").unwrap();
        let from = SqlExecutor::metrics_len(&mut db).unwrap();
        SqlExecutor::execute(&mut db, "INSERT INTO m VALUES (1)").unwrap();
        SqlExecutor::execute(&mut db, "SELECT i FROM m").unwrap();
        let since = SqlExecutor::metrics_since(&mut db, from).unwrap();
        assert_eq!(since.len(), 2);
        // The cursor is non-draining: a second read sees the same tail.
        assert_eq!(SqlExecutor::metrics_since(&mut db, from).unwrap().len(), 2);
    }
}
