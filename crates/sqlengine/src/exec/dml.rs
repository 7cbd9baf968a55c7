//! DDL and DML execution: CREATE/DROP TABLE, INSERT, UPDATE, DELETE.
//! UPDATE and DELETE run on the SELECT pipeline (`select`) into sinks of
//! their own.

use crate::ast::ColumnDef;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::select::{build_pipeline, run_pipeline, BatchSink};
use crate::exec::{run_select_columns, ExecConfig, QueryResult};
use crate::expr::{Batch, CExpr, Column, RowError};
use crate::metrics::StmtProbe;
use crate::plan::{constant_rows, Chain, DeletePlan, InsertPlan, InsertRows, UpdatePlan};
use crate::resource::ResourceTracker;
use crate::schema::{self, Schema};
use crate::value::Value;

pub fn create_table(
    catalog: &mut Catalog,
    name: &str,
    columns: &[ColumnDef],
    primary_key: &[String],
    if_not_exists: bool,
) -> Result<QueryResult> {
    let cols: Vec<schema::Column> = columns
        .iter()
        .map(|c| schema::Column::new(c.name.clone(), c.ty))
        .collect();
    let pk: Vec<&str> = primary_key.iter().map(String::as_str).collect();
    let schema = Schema::new(cols, &pk)?;
    catalog.create_table(name, schema, if_not_exists)?;
    Ok(QueryResult::affected(0))
}

pub fn drop_table(catalog: &mut Catalog, name: &str, if_exists: bool) -> Result<QueryResult> {
    catalog.drop_table(name, if_exists)?;
    Ok(QueryResult::affected(0))
}

pub fn insert(
    catalog: &mut Catalog,
    config: &ExecConfig,
    plan: &InsertPlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    // Stage the full batch — slot mapping, arity checks and type
    // coercion all happen before the table is touched — then append
    // atomically: a failed INSERT (including INSERT … SELECT) leaves
    // the target exactly as it was, so a retry is safe (§3.6 workflow
    // hardening; see docs/ROBUSTNESS.md). An empty target lends its
    // column vectors as the staging buffer (a re-created work table's
    // are sized already), and the SELECT hands each batch over as it is
    // made, so the buffer and the statement's whole output are never
    // held at once.
    let target = &plan.target;
    let table = catalog.table_mut(&target.table)?;
    let staged = match table.is_empty() {
        true => table.take_storage(),
        false => empty_columns(target.columns()),
    };
    let mut staging = Staging {
        plan,
        staged,
        failed: None,
    };
    match &plan.rows {
        InsertRows::Select(select) => {
            run_select_columns(catalog, config, select, probe, |cols| staging.stage(cols))?
        }
        InsertRows::Values(values) => {
            let rows = constant_rows(values)?;
            let column =
                |j: usize| Column::from_values(rows.iter().map(|r| r[j].clone()).collect());
            staging.stage((0..plan.incoming_arity()).map(column).collect());
        }
    }
    let staged = staging.finish(probe)?;
    let inserted = catalog.table_mut(&target.table)?.append(staged)?;
    probe.add_inserted(inserted);
    Ok(QueryResult::affected(inserted))
}

fn empty_columns(declared: &[schema::Column]) -> Vec<Column> {
    declared.iter().map(|d| Column::empty(d.ty)).collect()
}

/// The staging buffer of an INSERT, filled a batch of incoming columns
/// at a time while the SELECT runs. A batch is widened to the target's
/// columns and coerced to their types as it arrives; the first row that
/// does not coerce ends the staging, and its error waits for the SELECT
/// to finish — an error of the SELECT comes first. The rows are charged
/// once the SELECT is done, so the statement fails as staging the same
/// rows one at a time after the whole SELECT would ([`stage_rows`]):
/// with the error of the first row that does not coerce or does not fit
/// the budget, the rows before it charged.
struct Staging<'p> {
    plan: &'p InsertPlan,
    staged: Vec<Column>,
    failed: Option<RowError>,
}

impl Staging<'_> {
    /// Stage one batch of incoming columns, in the plan's column order.
    fn stage(&mut self, cols: Vec<Column>) {
        if self.failed.is_some() {
            return;
        }
        let target = &self.plan.target;
        let n = cols[0].len();
        let mut full: Vec<Option<Column>> = vec![None; target.arity()];
        for (j, col) in cols.into_iter().enumerate() {
            full[self.plan.target_slot(j)] = Some(col);
        }
        // NULL in the columns the column list leaves out.
        let coerced: Vec<Column> = full
            .into_iter()
            .zip(target.columns())
            .map(|(col, d)| {
                let (col, failed) = col.unwrap_or_else(|| Column::nulls(d.ty, n)).coerce(d.ty);
                if let Some(f) = failed {
                    if self.failed.as_ref().is_none_or(|e| f.row < e.row) {
                        self.failed = Some(f);
                    }
                }
                col
            })
            .collect();
        let rows = coerced.iter().map(Column::len).min().unwrap_or(0);
        for (col, mut more) in self.staged.iter_mut().zip(coerced) {
            more.truncate(rows);
            col.append(more);
        }
    }

    /// Charge the staged rows under `staged insert` and hand them over,
    /// or the error of the first row that did not coerce.
    fn finish(self, probe: &mut StmtProbe) -> Result<Vec<Column>> {
        let rows = self.staged.first().map_or(0, Column::len);
        probe
            .tracker()
            .charge_rows("staged insert", &self.staged, rows)?;
        match self.failed {
            Some(failed) => Err(failed.error),
            None => Ok(self.staged),
        }
    }
}

/// Stage incoming rows for `table` as one storage column per declared
/// column: check each row's arity, coerce it to the declared column
/// types and charge it to the statement's memory budget under `context`
/// as the buffer grows, so an over-budget or ill-typed batch aborts
/// before the table (or the WAL) sees any of it. The staging loop of
/// [`crate::Database::bulk_insert`] and WAL replay.
pub fn stage_rows<R: AsRef<[Value]>>(
    table: &str,
    declared: &[schema::Column],
    incoming: impl Iterator<Item = Result<R>>,
    context: &'static str,
    probe: &mut StmtProbe,
) -> Result<Vec<Column>> {
    let mut staged = empty_columns(declared);
    for row in incoming {
        let row = row?;
        let row = row.as_ref();
        if row.len() != declared.len() {
            return Err(Error::ArityMismatch {
                table: table.to_string(),
                expected: declared.len(),
                actual: row.len(),
            });
        }
        for (col, v) in staged.iter_mut().zip(row) {
            col.push(v)?;
        }
        // Coercion keeps a cell's logical size.
        probe
            .tracker()
            .charge(context, crate::resource::row_bytes(row))?;
    }
    Ok(staged)
}

/// The sink of UPDATE and DELETE. Of each target position it keeps the
/// first joined row: a probing row's build rows arrive in ascending
/// order, so that is the first FROM combination satisfying WHERE in
/// table order. Over those rows it evaluates the SETs in order, each
/// coerced to its column's type and written into the slot the SETs after
/// it read (as a projection's lateral aliases are), and keeps the
/// positions and the new values of the assigned columns.
struct DmlSink<'t> {
    chain: &'t Chain,
    assignments: &'t [(usize, CExpr)],
    /// The matched target positions, ascending: they arrive in driver
    /// order.
    positions: Vec<u32>,
    /// Per batch, the new values of each SET's column.
    values: Vec<Vec<Column>>,
    mem: &'t ResourceTracker,
}

impl BatchSink for DmlSink<'_> {
    fn push(&mut self, batch: Batch) -> Result<()> {
        let Some(Column::I64(positions, None)) = batch.column(self.chain.width()) else {
            unreachable!("the driver fills the positions slot");
        };
        let before = self.positions.len();
        let mut first = Vec::new();
        for (row, &pos) in positions.iter().enumerate() {
            if self.positions.last().is_none_or(|&last| pos as u32 > last) {
                first.push(row as u32);
                self.positions.push(pos as u32);
            }
        }
        let mut batch = batch.take(&first);
        let mut pending = None;
        for (slot, value) in self.assignments {
            let ty = self.chain.sources[0].columns()[*slot].ty;
            let (col, failed) = batch.eval_cut(value, &mut pending).coerce(ty);
            if let Some(failed) = failed.filter(|f| f.row < batch.len()) {
                batch.truncate(failed.row);
                pending = Some(failed.error);
            }
            batch.set(*slot, col);
        }
        self.positions.truncate(before + batch.len());
        if !batch.is_empty() && !self.assignments.is_empty() {
            let new = |(slot, _): &(usize, CExpr)| batch.column(*slot).expect("set").clone();
            let cols: Vec<Column> = self.assignments.iter().map(new).collect();
            self.mem.charge_rows("staged update", &cols, batch.len())?;
            self.values.push(cols);
        }
        pending.map_or(Ok(()), Err)
    }

    fn expr_evals(&self) -> u64 {
        (self.positions.len() * self.assignments.len()) as u64
    }
}

/// Run the chain of an UPDATE or a DELETE, whose target drives it: the
/// target positions it matched, ascending, and for each SET the new
/// values there — staged (and charged) before the table is touched.
fn run_dml(
    catalog: &Catalog,
    config: &ExecConfig,
    chain: &Chain,
    assignments: &[(usize, CExpr)],
    probe: &mut StmtProbe,
) -> Result<(Vec<u32>, Vec<Column>)> {
    let reads: Vec<&CExpr> = assignments.iter().map(|(_, e)| e).collect();
    let pipeline = build_pipeline(catalog, chain, &reads, true, probe)?;
    let sink = DmlSink {
        chain,
        assignments,
        positions: Vec::new(),
        values: Vec::new(),
        mem: probe.tracker(),
    };
    let sink = run_pipeline(&pipeline, config, probe, sink)?;
    let declared = assignments
        .iter()
        .map(|(c, _)| chain.sources[0].columns()[*c].ty);
    let mut values: Vec<Column> = declared.map(Column::empty).collect();
    for batch in sink.values {
        values
            .iter_mut()
            .zip(batch)
            .for_each(|(col, more)| col.append(more));
    }
    Ok((sink.positions, values))
}

/// UPDATE [… FROM]: the FROM tables are the target's build stages, and
/// the new values are swapped in at once (`Table::update`), so a failed
/// UPDATE leaves the table as it was.
pub fn update(
    catalog: &mut Catalog,
    config: &ExecConfig,
    plan: &UpdatePlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let (positions, values) = run_dml(catalog, config, &plan.chain, &plan.assignments, probe)?;
    if !positions.is_empty() {
        let columns = plan.assignments.iter().map(|(c, _)| *c);
        let table = catalog.table_mut(&plan.chain.sources[0].table)?;
        table.update(&positions, columns.zip(values).collect())?;
    }
    probe.add_updated(positions.len());
    Ok(QueryResult::affected(positions.len()))
}

/// DELETE: the table keeps the rows WHERE did not match.
pub fn delete(
    catalog: &mut Catalog,
    config: &ExecConfig,
    plan: &DeletePlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let (doomed, _) = run_dml(catalog, config, &plan.chain, &[], probe)?;
    let removed = catalog.table_mut(&plan.target.table)?.delete(&doomed);
    probe.add_deleted(removed);
    Ok(QueryResult::affected(removed))
}
