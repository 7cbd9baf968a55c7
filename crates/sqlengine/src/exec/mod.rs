//! Statement execution.
//!
//! [`execute_statement`] dispatches parsed statements against a catalog.
//! SELECT, `INSERT … SELECT`, UPDATE and DELETE go through the
//! batch-at-a-time join pipeline in the `select` module; DML and DDL are
//! handled in `dml`. Every full pass over a table's rows is
//! reported to the statement's [`StmtProbe`], which is how the harness
//! verifies the paper's claim that one hybrid EM iteration costs `2k+3`
//! scans of `n`-row tables plus one scan of a `pn`-row table (§3.5).

pub mod aggregate;
mod dml;
mod select;

pub(crate) use dml::stage_rows;
pub use select::{
    explain_select, finalize_select_partials, finish_select, run_select, run_select_columns,
    run_select_partial,
};

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::metrics::{StatementKind, StmtProbe};
use crate::plan::{plan_statement, StatementPlan};
use crate::table::Row;
use crate::value::Value;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Statements longer than this are rejected before parsing, modelling
    /// the DBMS parser limits that motivate the hybrid strategy (§1.3).
    pub max_statement_len: usize,
    /// Complexity ceilings enforced by the semantic-analysis pass
    /// (term count, expression depth, column width, FROM width) —
    /// the structural counterpart of `max_statement_len`.
    pub limits: crate::analyze::Limits,
    /// Wall-clock deadline for the statements that follow: a scan still
    /// running past this instant aborts with
    /// [`crate::Error::Deadline`]. `None` (the default) means
    /// unbounded. Servers arm this per statement from the client's
    /// propagated budget ([`crate::Database::set_statement_deadline`]);
    /// the abort is checked between row batches, so overrun is bounded
    /// by one batch's work, and statement atomicity holds (effects are
    /// staged and never swapped in).
    pub deadline: Option<std::time::Instant>,
    /// Working-memory budget for statement execution: every allocating
    /// operator (join builds, GROUP BY tables, staged DML buffers,
    /// bulk-load staging) charges it and a charge that would exceed the
    /// limit aborts the statement with the typed transient
    /// [`crate::Error::ResourceExhausted`] before any effects commit.
    /// `None` (the default) means unbounded — the peak-memory gauge in
    /// [`crate::ExecMetrics`] is still reported. The budget handle is
    /// shared: servers install per-namespace budgets chained to a
    /// global one ([`crate::resource::MemoryBudget::child_of`]).
    pub memory_budget: Option<crate::resource::MemoryBudget>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_statement_len: 64 * 1024,
            limits: crate::analyze::Limits::default(),
            deadline: None,
            memory_budget: None,
        }
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted for DML; rows returned for SELECT.
    pub rows_affected: usize,
}

impl QueryResult {
    /// An empty DML/DDL result.
    pub fn affected(n: usize) -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            rows_affected: n,
        }
    }

    /// The one-VARCHAR-column `plan` result EXPLAIN returns: a row per line.
    pub fn plan_lines(lines: Vec<String>) -> Self {
        let rows: Vec<Row> = lines
            .into_iter()
            .map(|l| vec![Value::from(l)].into_boxed_slice())
            .collect();
        QueryResult {
            columns: vec!["plan".to_string()],
            rows_affected: rows.len(),
            rows,
        }
    }

    /// First cell of the first row, if any — handy for scalar queries.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// First cell as f64 (NULL → None).
    pub fn scalar_f64(&self) -> Option<f64> {
        self.scalar().and_then(Value::as_f64)
    }

    /// Cell accessor with bounds checking.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// Position of a named output column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.columns.iter().position(|c| *c == lname)
    }
}

/// Execute one parsed statement without telemetry (a disabled probe).
pub fn execute_statement(
    catalog: &mut Catalog,
    config: &ExecConfig,
    stmt: &Statement,
) -> Result<QueryResult> {
    let mut probe = StmtProbe::disabled().with_budget(config.memory_budget.clone());
    execute_statement_metered(catalog, config, stmt, None, &mut probe)
}

/// The [`crate::metrics::StatementKind`] a statement reports as.
pub fn statement_kind(stmt: &Statement) -> StatementKind {
    match stmt {
        Statement::CreateTable { .. } => StatementKind::CreateTable,
        Statement::DropTable { .. } => StatementKind::DropTable,
        Statement::Insert { .. } => StatementKind::Insert,
        Statement::Update { .. } => StatementKind::Update,
        Statement::Delete { .. } => StatementKind::Delete,
        Statement::Select(_) => StatementKind::Select,
        Statement::Explain(_) | Statement::ExplainAnalyze(_) => StatementKind::Explain,
    }
}

/// Every table name a statement touches — the DML/DDL target first,
/// then any FROM sources — lowercased. Used by the fault-injection
/// facility's table-pattern matching and plancheck's lifecycle pass.
pub fn statement_tables(stmt: &Statement) -> Vec<String> {
    let mut tables = Vec::new();
    let mut add = |name: &str| {
        let lower = name.to_ascii_lowercase();
        if !tables.contains(&lower) {
            tables.push(lower);
        }
    };
    match stmt {
        Statement::CreateTable { name, .. } | Statement::DropTable { name, .. } => add(name),
        Statement::Insert { table, source, .. } => {
            add(table);
            if let crate::ast::InsertSource::Select(sel) = source {
                for tref in &sel.from {
                    add(&tref.table);
                }
            }
        }
        Statement::Update { table, from, .. } => {
            add(table);
            for tref in from {
                add(&tref.table);
            }
        }
        Statement::Delete { table, .. } => add(table),
        Statement::Select(sel) => {
            for tref in &sel.from {
                add(&tref.table);
            }
        }
        Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => {
            return statement_tables(inner)
        }
    }
    tables
}

/// Execute one parsed statement, recording telemetry into `probe`:
/// instantiate its plan against the rows. `plan` is the statement's
/// [`plan_statement`] result when the caller holds one (semantic
/// analysis returns it); otherwise the statement is planned here. DDL and
/// plain EXPLAIN have no data flow and are not planned.
pub fn execute_statement_metered(
    catalog: &mut Catalog,
    config: &ExecConfig,
    stmt: &Statement,
    plan: Option<StatementPlan>,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            primary_key,
            if_not_exists,
        } => return dml::create_table(catalog, name, columns, primary_key, *if_not_exists),
        Statement::DropTable { name, if_exists } => {
            return dml::drop_table(catalog, name, *if_exists)
        }
        // `Database` answers EXPLAIN itself, from the statement's analysis.
        Statement::Explain(inner) => {
            return match plan_statement(catalog, inner)? {
                StatementPlan::Select(select) => {
                    Ok(QueryResult::plan_lines(explain_select(catalog, &select)?))
                }
                _ => Err(Error::Unsupported(
                    "EXPLAIN supports SELECT statements only".into(),
                )),
            }
        }
        _ => {}
    }
    let plan = match plan {
        Some(plan) => plan,
        None => {
            let t0 = std::time::Instant::now();
            let plan = plan_statement(catalog, stmt)?;
            probe.add_plan_time(t0.elapsed());
            plan
        }
    };
    match stmt {
        Statement::ExplainAnalyze(inner) => explain_analyze(catalog, config, inner, plan),
        _ => execute_plan(catalog, config, &plan, probe),
    }
}

/// Instantiate the plan of a SELECT, INSERT, UPDATE or DELETE against
/// the rows, recording telemetry into `probe`. The plan is borrowed: a
/// prepared statement runs the plan it keeps.
pub fn execute_plan(
    catalog: &mut Catalog,
    config: &ExecConfig,
    plan: &StatementPlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    match plan {
        StatementPlan::Select(plan) => run_select(catalog, config, plan, probe),
        StatementPlan::Insert(plan) => dml::insert(catalog, config, plan, probe),
        StatementPlan::Update(plan) => dml::update(catalog, config, plan, probe),
        StatementPlan::Delete(plan) => dml::delete(catalog, config, plan, probe),
        StatementPlan::Utility => unreachable!("only DDL and EXPLAIN plan as Utility"),
    }
}

/// `EXPLAIN ANALYZE <stmt>`: execute the inner statement with a live
/// probe and return its plan (for SELECT) followed by the measured
/// [`crate::metrics::ExecMetrics`] — one VARCHAR `plan` column, in the
/// spirit of PostgreSQL's EXPLAIN ANALYZE. The inner statement's side
/// effects are real, exactly like the original.
fn explain_analyze(
    catalog: &mut Catalog,
    config: &ExecConfig,
    inner: &Statement,
    plan: StatementPlan,
) -> Result<QueryResult> {
    let mut lines: Vec<String> = Vec::new();
    if let StatementPlan::Select(select) = &plan {
        lines.extend(explain_select(catalog, select)?);
    }
    let mut probe = StmtProbe::enabled().with_budget(config.memory_budget.clone());
    let t0 = std::time::Instant::now();
    let result = execute_statement_metered(catalog, config, inner, Some(plan), &mut probe)?;
    let metrics = probe.finish(statement_kind(inner), t0.elapsed());
    lines.extend(metrics.render());
    lines.push(format!("result: {} row(s)", result.rows_affected));
    Ok(QueryResult::plan_lines(lines))
}
