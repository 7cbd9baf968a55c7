//! DDL and DML execution: CREATE/DROP TABLE, INSERT, UPDATE, DELETE.

use crate::ast::ColumnDef;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::{run_select_columns, ExecConfig, QueryResult};
use crate::expr::{Column, RowError};
use crate::metrics::StmtProbe;
use crate::plan::{constant_rows, DeletePlan, InsertPlan, InsertRows, UpdatePlan};
use crate::schema::{self, Schema};
use crate::value::Value;

/// Safety bound on the UPDATE…FROM cross product (the paper's auxiliary
/// tables have 1..k rows; anything huge is a generator bug).
const MAX_UPDATE_FROM_ROWS: usize = 1 << 20;

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
    // hardening; see docs/ROBUSTNESS.md).
    let target = &plan.target;
    let staged = match &plan.rows {
        InsertRows::Select(select) => {
            let mut staged = empty_columns(&target.columns);
            for cols in run_select_columns(catalog, config, select, probe)? {
                let n = cols[0].len();
                let mut full: Vec<Option<Column>> = vec![None; target.arity()];
                for (j, col) in cols.into_iter().enumerate() {
                    full[plan.target_slot(j)] = Some(col);
                }
                // NULL in the columns the column list leaves out.
                let declared = target.columns.iter();
                let widened = full
                    .into_iter()
                    .zip(declared)
                    .map(|(col, d)| col.unwrap_or_else(|| Column::nulls(d.ty, n)));
                stage_columns(
                    &mut staged,
                    &target.columns,
                    widened,
                    "staged insert",
                    probe,
                )?;
            }
            staged
        }
        InsertRows::Values(values) => {
            let widened = constant_rows(values)?
                .into_iter()
                .map(|row| plan.full_row(row));
            stage_rows(
                &target.table,
                &target.columns,
                widened,
                "staged insert",
                probe,
            )?
        }
    };
    let inserted = catalog.table_mut(&target.table)?.append(staged)?;
    probe.add_inserted(inserted);
    Ok(QueryResult::affected(inserted))
}

fn empty_columns(declared: &[schema::Column]) -> Vec<Column> {
    declared.iter().map(|d| Column::empty(d.ty)).collect()
}

/// Stage one batch of incoming columns, one per column of `declared`:
/// coerce each to its declared type and charge the batch's rows to the
/// statement's memory budget under `context`, then append it to
/// `staged`. Fails as staging the same rows one at a time fails
/// ([`stage_rows`]): with the error of the first row that does not
/// coerce or does not fit the budget, the rows before it charged.
fn stage_columns(
    staged: &mut [Column],
    declared: &[schema::Column],
    incoming: impl Iterator<Item = Column>,
    context: &'static str,
    probe: &mut StmtProbe,
) -> Result<()> {
    let mut first: Option<RowError> = None;
    let mut n = usize::MAX;
    let coerced: Vec<Column> = incoming
        .zip(declared)
        .map(|(col, d)| {
            let (col, failed) = col.coerce(d.ty);
            n = n.min(col.len());
            if let Some(f) = failed {
                if first.as_ref().is_none_or(|e| f.row < e.row) {
                    first = Some(f);
                }
            }
            col
        })
        .collect();
    probe.tracker().charge_rows(context, &coerced, n)?;
    if let Some(failed) = first {
        return Err(failed.error);
    }
    for (col, more) in staged.iter_mut().zip(coerced) {
        col.append(more);
    }
    Ok(())
}

/// Stage incoming rows for `table` as one storage column per declared
/// column: check each row's arity, coerce it to the declared column
/// types and charge it to the statement's memory budget under `context`
/// as the buffer grows, so an over-budget or ill-typed batch aborts
/// before the table (or the WAL) sees any of it. The one staging loop of
/// `INSERT … VALUES`, [`crate::Database::bulk_insert`] and WAL replay.
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

pub fn update(
    catalog: &mut Catalog,
    plan: &UpdatePlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let (target, from) = plan
        .chain
        .sources
        .split_first()
        .expect("an UPDATE plan starts with its target");

    // Materialize the FROM cross product (auxiliary tables are tiny).
    let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
    for source in from {
        let t = catalog.table(&source.table)?;
        probe.record_scan(t.name(), t.len(), true);
        probe.add_build_rows(t.len() as u64);
        let mut next = Vec::with_capacity(combos.len() * t.len().max(1));
        for combo in &combos {
            for pos in 0..t.len() {
                let mut c = combo.clone();
                c.extend(t.row(pos));
                probe
                    .tracker()
                    .charge("update from", crate::resource::row_bytes(&c))?;
                next.push(c);
            }
        }
        if next.len() > MAX_UPDATE_FROM_ROWS {
            return Err(Error::Unsupported(
                "UPDATE … FROM cross product too large".into(),
            ));
        }
        combos = next;
    }

    let touches_key = plan
        .assignments
        .iter()
        .any(|(slot, _)| target.primary_key.contains(slot));
    let table = catalog.table_mut(&target.table)?;
    probe.record_scan(table.name(), table.len(), false);
    let width = target.arity();
    let mut ctx: Vec<Value> = Vec::new();
    let updated = table.update_where(
        |row| {
            // Find the first FROM combination satisfying WHERE; rows with
            // no match are left untouched (standard UPDATE…FROM behaviour).
            let mut matched = false;
            for combo in &combos {
                ctx.clear();
                ctx.extend_from_slice(row);
                ctx.extend_from_slice(combo);
                if let Some(p) = &plan.predicate {
                    if !p.eval_predicate(&ctx)? {
                        continue;
                    }
                }
                // Sequential assignment: each SET sees the previous ones.
                for (slot, e) in &plan.assignments {
                    let v = e.eval(&ctx)?.coerce_to(target.columns[*slot].ty)?;
                    ctx[*slot] = v;
                }
                row.copy_from_slice_checked(&ctx[..width]);
                matched = true;
                break;
            }
            Ok(matched)
        },
        touches_key,
    )?;
    probe.add_updated(updated);
    Ok(QueryResult::affected(updated))
}

/// Small extension trait: clone-assign a slice of values onto a row.
trait CopyValues {
    fn copy_from_slice_checked(&mut self, src: &[Value]);
}

impl CopyValues for [Value] {
    fn copy_from_slice_checked(&mut self, src: &[Value]) {
        for (dst, s) in self.iter_mut().zip(src) {
            *dst = s.clone();
        }
    }
}

pub fn delete(
    catalog: &mut Catalog,
    plan: &DeletePlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let table = catalog.table_mut(&plan.target.table)?;
    probe.record_scan(table.name(), table.len(), false);
    let removed = match &plan.predicate {
        None => table.truncate(),
        Some(p) => {
            // Evaluation errors inside retain cannot propagate; evaluate
            // first, then delete by mark. DELETE is rare in this workload
            // (the paper prefers DROP/CREATE, §3.6), so the extra pass is
            // acceptable.
            let marks: Vec<bool> = (0..table.len())
                .map(|pos| p.eval_predicate(&table.row(pos)))
                .collect::<Result<Vec<_>>>()?;
            let mut it = marks.iter();
            table.delete_where(|_| *it.next().unwrap())
        }
    };
    probe.add_deleted(removed);
    Ok(QueryResult::affected(removed))
}
