//! DDL and DML execution: CREATE/DROP TABLE, INSERT, UPDATE, DELETE.

use crate::ast::{ColumnDef, Expr, InsertSource, TableRef};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::{run_select, ExecConfig, QueryResult};
use crate::expr::{compile, compile_constant, ColumnResolver};
use crate::metrics::StmtProbe;
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
    table_name: &str,
    columns: Option<&[String]>,
    source: &InsertSource,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    // Map the provided column order (if any) to table slots.
    let slot_map: Option<Vec<usize>> = {
        let table = catalog.table(table_name)?;
        match columns {
            None => None,
            Some(cols) => {
                let mut map = Vec::with_capacity(cols.len());
                for c in cols {
                    let idx = table
                        .schema()
                        .column_index(c)
                        .ok_or_else(|| Error::UnknownColumn(c.clone()))?;
                    if map.contains(&idx) {
                        return Err(Error::DuplicateColumn(c.clone()));
                    }
                    map.push(idx);
                }
                Some(map)
            }
        }
    };

    let incoming: Vec<Row> = match source {
        InsertSource::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let vals: Vec<Value> = exprs
                    .iter()
                    .map(compile_constant)
                    .collect::<Result<Vec<_>>>()?;
                out.push(vals.into_boxed_slice());
            }
            out
        }
        InsertSource::Select(sel) => {
            let result = run_select(catalog, config, sel, probe)?;
            result.rows
        }
    };

    // Stage the full batch — slot mapping, arity checks and type
    // coercion all happen before the table is touched — then insert
    // atomically: a failed INSERT (including INSERT … SELECT) leaves
    // the target exactly as it was, so a retry is safe (§3.6 workflow
    // hardening; see docs/ROBUSTNESS.md).
    let table = catalog.table_mut(table_name)?;
    let arity = table.schema().arity();
    let mut staged: Vec<Row> = Vec::with_capacity(incoming.len());
    for row in incoming {
        let full: Row = match &slot_map {
            None => {
                if row.len() != arity {
                    return Err(Error::ArityMismatch {
                        table: table.name().to_string(),
                        expected: arity,
                        actual: row.len(),
                    });
                }
                row
            }
            Some(map) => {
                if row.len() != map.len() {
                    return Err(Error::ArityMismatch {
                        table: table.name().to_string(),
                        expected: map.len(),
                        actual: row.len(),
                    });
                }
                let mut full = vec![Value::Null; arity];
                for (v, &slot) in row.iter().zip(map) {
                    full[slot] = v.clone();
                }
                full.into_boxed_slice()
            }
        };
        // Coerce to declared column types.
        let coerced: Row = full
            .iter()
            .enumerate()
            .map(|(i, v)| v.coerce_to(table.schema().column(i).ty))
            .collect::<Result<Vec<_>>>()?
            .into_boxed_slice();
        // Charge the staging buffer as it grows: an over-budget INSERT
        // aborts before the table is touched, so atomicity holds.
        probe
            .tracker()
            .charge("staged insert", crate::resource::row_bytes(&coerced))?;
        staged.push(coerced);
    }
    let inserted = table.insert_all_or_rollback(staged)?;
    probe.add_inserted(inserted);
    Ok(QueryResult::affected(inserted))
}

pub fn update(
    catalog: &mut Catalog,
    table_name: &str,
    from: &[TableRef],
    assignments: &[(String, Expr)],
    where_clause: Option<&Expr>,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    // Build scopes: target table first, then FROM tables.
    let target_visible = table_name.to_ascii_lowercase();
    let mut scopes: Vec<(String, Vec<String>)> = Vec::with_capacity(1 + from.len());
    {
        let table = catalog.table(table_name)?;
        scopes.push((
            target_visible.clone(),
            table
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        ));
    }
    for tref in from {
        let t = catalog.table(&tref.table)?;
        let visible = tref.visible_name().to_ascii_lowercase();
        if scopes.iter().any(|(n, _)| *n == visible) {
            return Err(Error::DuplicateTable(visible));
        }
        scopes.push((
            visible,
            t.schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        ));
    }
    let resolver = ColumnResolver::from_tables(&scopes);

    // Materialize the FROM cross product (auxiliary tables are tiny).
    let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
    for tref in from {
        let t = catalog.table(&tref.table)?;
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

    // Compile predicate and assignments against [target ++ from] slots.
    let pred = where_clause.map(|w| compile(w, &resolver)).transpose()?;
    let compiled_assignments: Vec<(usize, crate::expr::CExpr)> = {
        let table = catalog.table(table_name)?;
        assignments
            .iter()
            .map(|(col, e)| {
                let slot = table
                    .schema()
                    .column_index(col)
                    .ok_or_else(|| Error::UnknownColumn(col.clone()))?;
                Ok((slot, compile(e, &resolver)?))
            })
            .collect::<Result<Vec<_>>>()?
    };
    let (touches_key, col_types) = {
        let table = catalog.table(table_name)?;
        let touches = compiled_assignments
            .iter()
            .any(|(slot, _)| table.schema().primary_key().contains(slot));
        let types: Vec<_> = table.schema().columns().iter().map(|c| c.ty).collect();
        (touches, types)
    };

    let table = catalog.table_mut(table_name)?;
    probe.record_scan(table.name(), table.len(), false);
    let width = col_types.len();
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
                if let Some(p) = &pred {
                    if !p.eval_predicate(&ctx)? {
                        continue;
                    }
                }
                // Sequential assignment: each SET sees the previous ones.
                for (slot, e) in &compiled_assignments {
                    let v = e.eval(&ctx)?.coerce_to(col_types[*slot])?;
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
    table_name: &str,
    where_clause: Option<&Expr>,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let pred = {
        let table = catalog.table(table_name)?;
        let scopes = vec![(
            table.name().to_string(),
            table
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect::<Vec<_>>(),
        )];
        let resolver = ColumnResolver::from_tables(&scopes);
        where_clause.map(|w| compile(w, &resolver)).transpose()?
    };
    let table = catalog.table_mut(table_name)?;
    probe.record_scan(table.name(), table.len(), false);
    let removed = match pred {
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
