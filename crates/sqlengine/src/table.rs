//! In-memory table storage with an optional primary-key hash index.
//!
//! Rows are boxed slices of [`Value`]; the table is a `Vec` of rows plus a
//! hash index from primary-key tuples to row positions when the schema
//! declares a key. The index gives O(1) duplicate detection on insert —
//! the "primary index" behaviour the paper relies on (§2.6) — and fast
//! point lookups for UPDATE/DELETE with key predicates.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

/// A stored row.
pub type Row = Box<[Value]>;

/// Build a row from an iterator of values.
pub fn row_from<I: IntoIterator<Item = Value>>(vals: I) -> Row {
    vals.into_iter().collect::<Vec<_>>().into_boxed_slice()
}

/// One table: schema + rows + optional PK index.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    /// PK tuple -> position in `rows`. Present iff the schema has a key.
    index: Option<HashMap<Row, usize>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let index = schema.has_primary_key().then(HashMap::new);
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            rows: Vec::new(),
            index,
        }
    }

    /// Rebuild a table from a schema plus stored rows (snapshot load).
    /// Re-validates arity and primary-key uniqueness so a corrupted
    /// snapshot cannot install an inconsistent index.
    pub fn from_rows(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut table = Table::new(name, schema);
        table.insert_many(rows)?;
        Ok(table)
    }

    /// Table name (lowercase).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Extract the PK tuple of a candidate row.
    fn key_of(&self, row: &[Value]) -> Row {
        self.schema
            .primary_key()
            .iter()
            .map(|&i| row[i].clone())
            .collect()
    }

    /// Insert one row. Values must already be coerced to the schema types
    /// (the executor does that). Enforces arity and PK uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.arity(),
                actual: row.len(),
            });
        }
        if let Some(index) = &mut self.index {
            let key = self
                .schema
                .primary_key()
                .iter()
                .map(|&i| row[i].clone())
                .collect::<Row>();
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => {
                    return Err(Error::DuplicateKey {
                        table: self.name.clone(),
                    });
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(self.rows.len());
                }
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Bulk insert with pre-reserved capacity. On error the table may
    /// retain a prefix of `rows`; use [`Table::insert_all_or_rollback`]
    /// when statement atomicity is required.
    pub fn insert_many<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<usize> {
        let iter = rows.into_iter();
        let (lo, _) = iter.size_hint();
        self.rows.reserve(lo);
        if let Some(index) = &mut self.index {
            index.reserve(lo);
        }
        let mut n = 0;
        for row in iter {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Atomic bulk insert: either every row lands or none do. On a
    /// mid-batch failure (duplicate key, arity) the rows inserted so far
    /// are popped back off and their index entries removed, restoring
    /// the table to its pre-statement state — the staging half of the
    /// stage-and-swap semantics that make statement retries safe.
    pub fn insert_all_or_rollback(&mut self, rows: Vec<Row>) -> Result<usize> {
        let start = self.rows.len();
        self.rows.reserve(rows.len());
        if let Some(index) = &mut self.index {
            index.reserve(rows.len());
        }
        let total = rows.len();
        let mut failure = None;
        for row in rows {
            if let Err(e) = self.insert(row) {
                failure = Some(e);
                break;
            }
        }
        let Some(e) = failure else {
            return Ok(total);
        };
        while self.rows.len() > start {
            let row = self.rows.pop().expect("len > start implies non-empty");
            let key: Row = self
                .schema
                .primary_key()
                .iter()
                .map(|&i| row[i].clone())
                .collect();
            if let Some(index) = &mut self.index {
                index.remove(&key);
            }
        }
        Err(e)
    }

    /// Point lookup by full primary-key tuple. `None` when the table has no
    /// key or no matching row.
    pub fn lookup(&self, key: &[Value]) -> Option<&Row> {
        self.position(key).map(|pos| &self.rows[pos])
    }

    /// Position in [`Table::rows`] of the row with this full primary-key
    /// tuple (in [`Schema::primary_key`] order). This is the probe side
    /// of a primary-key index join: the executor borrows the index the
    /// table already maintains instead of hashing the table again.
    pub(crate) fn position(&self, key: &[Value]) -> Option<usize> {
        self.index.as_ref()?.get(key).copied()
    }

    /// Delete every row (keeps allocation via `clear`).
    pub fn truncate(&mut self) -> usize {
        let n = self.rows.len();
        self.rows.clear();
        if let Some(index) = &mut self.index {
            index.clear();
        }
        n
    }

    /// Delete rows matching `pred`; returns how many were removed. The PK
    /// index is rebuilt afterwards (deletes are rare in the SQLEM workload;
    /// the paper explicitly prefers DROP/CREATE over bulk DELETE §3.6).
    pub fn delete_where<F: FnMut(&[Value]) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| !pred(r));
        let removed = before - self.rows.len();
        if removed > 0 {
            self.rebuild_index();
        }
        removed
    }

    /// Apply `f` to every row (UPDATE). `f` returns true when it
    /// modified the row. **Atomic**: the updates are staged on a copy of
    /// the rows and swapped in only if every evaluation succeeds (and,
    /// when `touches_key`, only if the updated keys are still unique) —
    /// a failed UPDATE leaves the table exactly as it was, so retrying
    /// the statement is safe. Returns the number of modified rows.
    pub fn update_where<F: FnMut(&mut [Value]) -> Result<bool>>(
        &mut self,
        mut f: F,
        touches_key: bool,
    ) -> Result<usize> {
        let mut new_rows = self.rows.clone();
        let mut n = 0;
        for row in &mut new_rows {
            if f(row)? {
                n += 1;
            }
        }
        if n == 0 {
            return Ok(0);
        }
        if touches_key && self.index.is_some() {
            // Build the replacement index before committing anything;
            // a duplicate key aborts with the table untouched.
            let mut new_index = HashMap::with_capacity(new_rows.len());
            for (pos, row) in new_rows.iter().enumerate() {
                let key: Row = self
                    .schema
                    .primary_key()
                    .iter()
                    .map(|&i| row[i].clone())
                    .collect();
                if new_index.insert(key, pos).is_some() {
                    return Err(Error::DuplicateKey {
                        table: self.name.clone(),
                    });
                }
            }
            self.index = Some(new_index);
        }
        self.rows = new_rows;
        Ok(n)
    }

    fn rebuild_index(&mut self) {
        if !self.try_rebuild_index() {
            // delete_where cannot introduce duplicates; this branch is
            // unreachable but kept defensive.
            unreachable!("index rebuild after delete found duplicates");
        }
    }

    fn try_rebuild_index(&mut self) -> bool {
        let Some(index) = &mut self.index else {
            return true;
        };
        index.clear();
        index.reserve(self.rows.len());
        for (pos, row) in self.rows.iter().enumerate() {
            let key: Row = self
                .schema
                .primary_key()
                .iter()
                .map(|&i| row[i].clone())
                .collect();
            if index.insert(key, pos).is_some() {
                return false;
            }
        }
        true
    }

    /// Clone of key extraction for external callers (executor point lookups).
    pub fn key_for_row(&self, row: &[Value]) -> Row {
        self.key_of(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn yd_schema() -> Schema {
        Schema::new(vec![Column::bigint("rid"), Column::double("d1")], &["rid"]).unwrap()
    }

    fn r(vals: Vec<Value>) -> Row {
        vals.into_boxed_slice()
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = Table::new("YD", yd_schema());
        t.insert(r(vec![Value::Int(1), Value::Double(0.5)]))
            .unwrap();
        t.insert(r(vec![Value::Int(2), Value::Double(1.5)]))
            .unwrap();
        assert_eq!(t.len(), 2);
        let found = t.lookup(&[Value::Int(2)]).unwrap();
        assert_eq!(found[1], Value::Double(1.5));
        assert!(t.lookup(&[Value::Int(3)]).is_none());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = Table::new("yd", yd_schema());
        t.insert(r(vec![Value::Int(1), Value::Double(0.5)]))
            .unwrap();
        let err = t
            .insert(r(vec![Value::Int(1), Value::Double(9.9)]))
            .unwrap_err();
        assert_eq!(err, Error::DuplicateKey { table: "yd".into() });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn cross_type_keys_collide() {
        // Int(1) and Double(1.0) are the same key — matters because
        // generated SQL mixes integer literals and computed doubles.
        let mut t = Table::new("yd", yd_schema());
        t.insert(r(vec![Value::Int(1), Value::Double(0.0)]))
            .unwrap();
        let err = t.insert(r(vec![Value::Double(1.0), Value::Double(0.0)]));
        assert!(err.is_err());
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::new("yd", yd_schema());
        let err = t.insert(r(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { .. }));
    }

    #[test]
    fn truncate_clears_rows_and_index() {
        let mut t = Table::new("yd", yd_schema());
        t.insert(r(vec![Value::Int(1), Value::Double(0.5)]))
            .unwrap();
        assert_eq!(t.truncate(), 1);
        assert!(t.is_empty());
        // Key is free again.
        t.insert(r(vec![Value::Int(1), Value::Double(0.7)]))
            .unwrap();
    }

    #[test]
    fn delete_where_rebuilds_index() {
        let mut t = Table::new("yd", yd_schema());
        for i in 0..10 {
            t.insert(r(vec![Value::Int(i), Value::Double(i as f64)]))
                .unwrap();
        }
        let removed = t.delete_where(|row| matches!(row[0], Value::Int(i) if i % 2 == 0));
        assert_eq!(removed, 5);
        assert!(t.lookup(&[Value::Int(2)]).is_none());
        assert!(t.lookup(&[Value::Int(3)]).is_some());
    }

    #[test]
    fn update_where_detects_key_collision() {
        let mut t = Table::new("yd", yd_schema());
        t.insert(r(vec![Value::Int(1), Value::Double(0.0)]))
            .unwrap();
        t.insert(r(vec![Value::Int(2), Value::Double(0.0)]))
            .unwrap();
        // Set every rid to 7 → collision.
        let err = t.update_where(
            |row| {
                row[0] = Value::Int(7);
                Ok(true)
            },
            true,
        );
        assert!(err.is_err());
    }

    #[test]
    fn update_non_key_columns() {
        let mut t = Table::new("yd", yd_schema());
        t.insert(r(vec![Value::Int(1), Value::Double(0.0)]))
            .unwrap();
        let n = t
            .update_where(
                |row| {
                    row[1] = Value::Double(5.0);
                    Ok(true)
                },
                false,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.rows()[0][1], Value::Double(5.0));
    }

    #[test]
    fn keyless_table_allows_duplicates() {
        let schema = Schema::keyless(vec![Column::double("w")]).unwrap();
        let mut t = Table::new("w", schema);
        t.insert(r(vec![Value::Double(0.5)])).unwrap();
        t.insert(r(vec![Value::Double(0.5)])).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.lookup(&[Value::Double(0.5)]).is_none());
    }
}
