//! DDL and DML execution: CREATE/DROP TABLE, INSERT, UPDATE, DELETE.

use crate::ast::ColumnDef;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::{run_select, ExecConfig, QueryResult};
use crate::metrics::StmtProbe;
use crate::plan::{constant_rows, DeletePlan, InsertPlan, InsertRows, UpdatePlan};
use crate::schema::{Column, Schema};
use crate::table::Row;
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
    let cols: Vec<Column> = columns
        .iter()
        .map(|c| Column::new(c.name.clone(), c.ty))
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
    let incoming: Vec<Row> = match &plan.rows {
        InsertRows::Select(select) => run_select(catalog, config, select, probe)?.rows,
        InsertRows::Values(values) => constant_rows(values)?,
    };

    // Stage the full batch — slot mapping, arity checks and type
    // coercion all happen before the table is touched — then insert
    // atomically: a failed INSERT (including INSERT … SELECT) leaves
    // the target exactly as it was, so a retry is safe (§3.6 workflow
    // hardening; see docs/ROBUSTNESS.md).
    let target = &plan.target;
    let widened = incoming.into_iter().map(|row| plan.full_row(row));
    let staged = stage_rows(
        &target.table,
        &target.columns,
        widened,
        "staged insert",
        probe,
    )?;
    let inserted = catalog
        .table_mut(&target.table)?
        .insert_all_or_rollback(staged)?;
    probe.add_inserted(inserted);
    Ok(QueryResult::affected(inserted))
}

/// Stage incoming rows for `table`: check each row's arity, coerce it
/// to the declared column types and charge it to the statement's memory
/// budget under `context` as the buffer grows, so an over-budget or
/// ill-typed batch aborts before the table (or the WAL) sees any of it.
/// The one staging loop of `INSERT` and [`crate::Database::bulk_insert`].
pub fn stage_rows<R: AsRef<[Value]>>(
    table: &str,
    columns: &[Column],
    incoming: impl Iterator<Item = Result<R>>,
    context: &'static str,
    probe: &mut StmtProbe,
) -> Result<Vec<Row>> {
    let mut staged: Vec<Row> = Vec::with_capacity(incoming.size_hint().0);
    for row in incoming {
        let row = row?;
        let row = row.as_ref();
        if row.len() != columns.len() {
            return Err(Error::ArityMismatch {
                table: table.to_string(),
                expected: columns.len(),
                actual: row.len(),
            });
        }
        let coerced: Row = row
            .iter()
            .zip(columns)
            .map(|(v, column)| v.coerce_to(column.ty))
            .collect::<Result<Vec<_>>>()?
            .into_boxed_slice();
        probe
            .tracker()
            .charge(context, crate::resource::row_bytes(&coerced))?;
        staged.push(coerced);
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
            for row in t.rows() {
                let mut c = combo.clone();
                c.extend_from_slice(row);
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
            let marks: Vec<bool> = table
                .rows()
                .iter()
                .map(|r| p.eval_predicate(r))
                .collect::<Result<Vec<_>>>()?;
            let mut it = marks.iter();
            table.delete_where(|_| *it.next().unwrap())
        }
    };
    probe.add_deleted(removed);
    Ok(QueryResult::affected(removed))
}
