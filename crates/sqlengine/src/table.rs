//! In-memory table storage: typed columns and a positions-only key index.
//!
//! A table holds one [`Column`] per declared column — DOUBLE as a
//! `Vec<f64>`, BIGINT as a `Vec<i64>`, each with a validity vector once a
//! NULL arrives; VARCHAR as values — so a scan hands the executor slices,
//! `INSERT … SELECT` appends columns and DROP frees one vector per column.
//! UPDATE and DELETE hand the table the positions they matched
//! ([`Table::update`], [`Table::delete`]).
//!
//! When the schema declares a key, a [`KeyTable`] — the engine's one hash
//! table — maps a key to its row: the slots hold row *positions* only,
//! hashing and equality read the key cells out of the columns. It gives
//! O(1) duplicate detection on insert — the "primary index" behaviour the
//! paper relies on (§2.6) — and the probe side of a primary-key join
//! ([`Table::probe`]). Key equality is [`Value`]'s `==`: `1 = 1.0`, exact
//! for BIGINTs past 2^53 — through a [`crate::keytable::KeyView`], so a
//! BIGINT key column without NULLs compares as integers.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::expr::Column;
use crate::keytable::{hash_rows, KeyTable, KeyView, MAX_KEYS};
use crate::schema::Schema;
use crate::value::Value;

pub use crate::keytable::NO_ROW;

/// A row as a client reads it.
pub type Row = Box<[Value]>;

/// Most rows a table holds: positions are `u32` in the index and along
/// the SELECT pipeline, and [`NO_ROW`] is not a position.
const MAX_ROWS: usize = MAX_KEYS;

/// One table: schema + columns + optional key index.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    /// Shared with the plans made on it, which compare it by pointer to
    /// tell that they still hold.
    schema: Arc<Schema>,
    /// One storage column per declared column, all of one length.
    cols: Vec<Column>,
    /// Key → row position over the key columns, present iff the schema
    /// has a key; it holds every row.
    index: Option<KeyTable>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            cols: schema
                .columns()
                .iter()
                .map(|c| Column::empty(c.ty))
                .collect(),
            index: schema.has_primary_key().then(KeyTable::new),
            schema: Arc::new(schema),
        }
    }

    /// Table name (lowercase).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's schema, as the plans made on it share it.
    pub fn shared_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Column::len)
    }

    /// True iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored columns, in declaration order, rows in insertion order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Empty the table for a CREATE of its name and schema (see
    /// [`crate::catalog`]): its rows, NULL masks and keys go, its column
    /// vectors and index slots stay allocated.
    pub(crate) fn clear(&mut self) {
        self.cols.iter_mut().for_each(Column::clear);
        if let Some(index) = &mut self.index {
            index.clear();
        }
    }

    /// The column vectors of an empty table, as the staging buffer of an
    /// INSERT: the rows it stages land where [`Table::append`] keeps
    /// them. The table holds fresh empty columns meanwhile, so a failed
    /// INSERT, which drops the buffer, leaves it empty and usable.
    pub(crate) fn take_storage(&mut self) -> Vec<Column> {
        debug_assert!(self.is_empty(), "only an empty table lends its storage");
        let declared = self.schema.columns().iter();
        let fresh = declared.map(|c| Column::empty(c.ty)).collect();
        std::mem::replace(&mut self.cols, fresh)
    }

    /// Append a batch of rows held as one storage column per declared
    /// column ([`Column::coerce`]d to its type) — the one way rows enter
    /// a table. All or nothing: on a duplicate key (or a batch that does
    /// not fit the schema or the row limit) the table is exactly as it
    /// was, which is what makes a statement retry safe. Returns the
    /// number of rows appended.
    pub fn append(&mut self, batch: Vec<Column>) -> Result<usize> {
        if batch.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.arity(),
                actual: batch.len(),
            });
        }
        let n = batch.first().map_or(0, Column::len);
        let declared = self.schema.columns().iter();
        if !batch
            .iter()
            .zip(declared)
            .all(|(c, d)| c.stores(d.ty) && c.len() == n)
        {
            return Err(Error::TypeMismatch {
                context: format!("column batch does not match the schema of {}", self.name),
            });
        }
        let before = self.len();
        if n > MAX_ROWS - before {
            return Err(Error::TableFull {
                table: self.name.clone(),
                max_rows: MAX_ROWS,
            });
        }
        if before == 0 {
            self.cols = batch;
        } else {
            for (col, more) in self.cols.iter_mut().zip(batch) {
                col.append(more);
            }
        }
        if self.index_rows(before) {
            return Ok(n);
        }
        self.cols.iter_mut().for_each(|c| c.truncate(before));
        self.reindex();
        Err(Error::DuplicateKey {
            table: self.name.clone(),
        })
    }

    /// Delete the rows at `positions` (ascending, distinct); the rest are
    /// kept with one `Column::take` each and the key index is rebuilt.
    /// Returns how many rows were removed.
    pub fn delete(&mut self, positions: &[u32]) -> usize {
        if positions.is_empty() {
            return 0;
        }
        let mut doomed = positions.iter().peekable();
        let keep: Vec<u32> = (0..self.len() as u32)
            .filter(|pos| doomed.next_if_eq(&pos).is_none())
            .collect();
        self.cols = self.cols.iter().map(|c| c.take(&keep)).collect();
        self.reindex();
        positions.len()
    }

    /// Overwrite the rows at `positions` (ascending, distinct) of each
    /// column `c` of `values`, in order, with the rows of its new column,
    /// a storage column of the declared type — the replacement is one
    /// take over the old column followed by the new values. **Atomic**:
    /// when a key column changes and the keys are no longer unique, the
    /// table is exactly as it was and the UPDATE fails, so a retry is safe.
    pub fn update(&mut self, positions: &[u32], values: Vec<(usize, Column)>) -> Result<()> {
        let n = self.len() as u32;
        let mut from: Vec<u32> = (0..n).collect();
        for (new, &pos) in (n..).zip(positions) {
            from[pos as usize] = new;
        }
        let key = self.schema.primary_key();
        let old = values
            .iter()
            .any(|(c, _)| key.contains(c))
            .then(|| self.cols.clone());
        for (c, new) in values {
            let mut staged = self.cols[c].clone();
            staged.append(new);
            self.cols[c] = staged.take(&from);
        }
        if let Some(old) = old.filter(|_| !self.reindex()) {
            self.cols = old;
            self.reindex();
            return Err(Error::DuplicateKey {
                table: self.name.clone(),
            });
        }
        Ok(())
    }

    /// The key columns, in [`Schema::primary_key`] order.
    fn key_cols(&self) -> Vec<&Column> {
        let key = self.schema.primary_key().iter();
        key.map(|&c| &self.cols[c]).collect()
    }

    /// Enter the rows from `from` on — the index holds those before —
    /// into the key index. False if one of them repeats a key; the index
    /// is then to be rebuilt.
    fn index_rows(&mut self, from: usize) -> bool {
        let Some(mut index) = self.index.take() else {
            return true;
        };
        let keys = self.key_cols();
        let view = KeyView::new(&keys);
        index.reserve(self.len() - from, || hash_rows(&keys, 0..from));
        let hashes = hash_rows(&keys, from..self.len());
        let unique = hashes.iter().zip(from..).all(|(&hash, pos)| {
            let entered = index.enter(hash, |other| view.eq(other, &view, pos));
            entered.expect("append checked the row limit").1
        });
        self.index = Some(index);
        unique
    }

    /// Rebuild the key index over the rows as they are; false on a
    /// repeated key.
    fn reindex(&mut self) -> bool {
        if let Some(index) = &mut self.index {
            index.clear();
        }
        self.index_rows(0)
    }

    /// The position of the row whose primary key is row `i` of `keys`
    /// (one column per key column, in [`Schema::primary_key`] order, of
    /// any numeric or string type), for each `i < n`; [`NO_ROW`] where
    /// there is none. SQL join semantics: a NULL key matches nothing.
    /// This is the probe side of a primary-key index join: the executor
    /// borrows the index the table maintains anyway instead of hashing
    /// the table again. A table without a key matches nothing.
    pub fn probe(&self, keys: &[Column], n: usize) -> Vec<u32> {
        let Some(index) = &self.index else {
            return vec![NO_ROW; n];
        };
        let stored = self.key_cols();
        let (probe, held) = (KeyView::new(keys), KeyView::new(&stored));
        index.probe(&probe, &hash_rows(keys, 0..n), |i, pos| {
            probe.eq(i, &held, pos)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column as ColumnDef;

    fn yd_schema() -> Schema {
        Schema::new(
            vec![ColumnDef::bigint("rid"), ColumnDef::double("d1")],
            &["rid"],
        )
        .unwrap()
    }

    /// Append one row, coerced to the schema.
    fn insert(t: &mut Table, row: Vec<Value>) -> Result<usize> {
        let declared = t.schema().columns().iter();
        let cols = row.iter().zip(declared).map(|(v, d)| {
            let mut c = Column::empty(d.ty);
            c.push(v).unwrap();
            c
        });
        t.append(cols.collect())
    }

    fn position(t: &Table, key: Value) -> Option<usize> {
        let hit = t.probe(&[Column::from_values(vec![key])], 1)[0];
        (hit != NO_ROW).then_some(hit as usize)
    }

    #[test]
    fn insert_and_probe() {
        let mut t = Table::new("YD", yd_schema());
        insert(&mut t, vec![Value::Int(1), Value::Double(0.5)]).unwrap();
        insert(&mut t, vec![Value::Int(2), Value::Double(1.5)]).unwrap();
        assert_eq!(t.len(), 2);
        let found = position(&t, Value::Int(2)).unwrap();
        assert_eq!(t.columns()[1].value(found), Value::Double(1.5));
        assert_eq!(position(&t, Value::Int(3)), None);
        assert_eq!(position(&t, Value::Double(1.0)), Some(0));
        assert_eq!(position(&t, Value::Double(1.5)), None);
        assert_eq!(position(&t, Value::Null), None);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = Table::new("yd", yd_schema());
        insert(&mut t, vec![Value::Int(1), Value::Double(0.5)]).unwrap();
        let err = insert(&mut t, vec![Value::Int(1), Value::Double(9.9)]).unwrap_err();
        assert_eq!(err, Error::DuplicateKey { table: "yd".into() });
        assert_eq!(t.len(), 1);
        assert_eq!(position(&t, Value::Int(1)), Some(0));
    }

    #[test]
    fn a_batch_that_does_not_fit_the_schema_is_refused() {
        let mut t = Table::new("yd", yd_schema());
        let err = t.append(vec![Column::I64(vec![1], None)]).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { .. }));
        let ints = || Column::I64(vec![1], None);
        let err = t.append(vec![ints(), ints()]).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        let err = t
            .append(vec![ints(), Column::F64(vec![], None)])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        assert!(t.is_empty());
    }

    #[test]
    fn a_table_refuses_to_grow_past_the_row_limit() {
        let mut t = Table::new("yd", yd_schema());
        let batch = |from: usize, n: usize| {
            vec![
                Column::I64((from..from + n).map(|i| i as i64).collect(), None),
                Column::F64(vec![0.0; n], None),
            ]
        };
        assert_eq!(t.append(batch(0, MAX_ROWS - 1)).unwrap(), MAX_ROWS - 1);
        let err = t.append(batch(MAX_ROWS - 1, 2)).unwrap_err();
        let full = Error::TableFull {
            table: "yd".into(),
            max_rows: MAX_ROWS,
        };
        assert_eq!(err, full);
        assert_eq!(t.len(), MAX_ROWS - 1);
        assert_eq!(t.append(batch(MAX_ROWS - 1, 1)).unwrap(), 1);
        assert_eq!(t.append(batch(MAX_ROWS, 1)).unwrap_err(), full);
        assert_eq!(
            position(&t, Value::Int(MAX_ROWS as i64 - 1)),
            Some(MAX_ROWS - 1)
        );
    }

    #[test]
    fn deleting_every_row_clears_rows_and_index() {
        let mut t = Table::new("yd", yd_schema());
        insert(&mut t, vec![Value::Int(1), Value::Double(0.5)]).unwrap();
        assert_eq!(t.delete(&[0]), 1);
        assert!(t.is_empty());
        // Key is free again.
        insert(&mut t, vec![Value::Int(1), Value::Double(0.7)]).unwrap();
    }

    #[test]
    fn delete_rebuilds_index() {
        let mut t = Table::new("yd", yd_schema());
        for i in 0..10 {
            insert(&mut t, vec![Value::Int(i), Value::Double(i as f64)]).unwrap();
        }
        assert_eq!(t.delete(&[0, 2, 4, 6, 8]), 5);
        assert_eq!(position(&t, Value::Int(2)), None);
        assert_eq!(position(&t, Value::Int(3)), Some(1));
    }

    #[test]
    fn update_detects_key_collision() {
        let mut t = Table::new("yd", yd_schema());
        insert(&mut t, vec![Value::Int(1), Value::Double(0.0)]).unwrap();
        insert(&mut t, vec![Value::Int(2), Value::Double(0.0)]).unwrap();
        // Set every rid to 7 → collision.
        let err = t.update(&[0, 1], vec![(0, Column::I64(vec![7, 7], None))]);
        assert!(err.is_err());
        assert_eq!(t.columns()[0].value(1), Value::Int(2));
        assert_eq!(position(&t, Value::Int(2)), Some(1));
    }

    #[test]
    fn update_non_key_columns() {
        let mut t = Table::new("yd", yd_schema());
        for i in 0..3 {
            insert(&mut t, vec![Value::Int(i), Value::Double(0.0)]).unwrap();
        }
        t.update(&[1], vec![(1, Column::F64(vec![5.0], None))])
            .unwrap();
        let d1 = &t.columns()[1];
        assert_eq!(
            (d1.value(0), d1.value(1)),
            (Value::Double(0.0), Value::Double(5.0))
        );
        assert_eq!(position(&t, Value::Int(2)), Some(2));
    }

    #[test]
    fn a_cleared_table_keeps_its_storage_and_answers_as_a_fresh_one() {
        let mut t = Table::new("yd", yd_schema());
        let rows = 5000;
        let batch = |nulls: bool| {
            let d1 = (0..rows).map(|i| (i as f64) * 0.5);
            let valid = nulls.then(|| (0..rows).map(|i| i % 3 != 0).collect());
            vec![
                Column::I64((0..rows as i64).collect(), None),
                Column::F64(d1.collect(), valid),
            ]
        };
        t.append(batch(true)).unwrap();
        let slots = t.index.as_ref().unwrap().capacity();
        let capacity: Vec<usize> = t.columns().iter().map(Column::capacity).collect();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(position(&t, Value::Int(7)), None);
        assert!(matches!(&t.columns()[1], Column::F64(v, None) if v.is_empty()));
        let kept: Vec<usize> = t.columns().iter().map(Column::capacity).collect();
        assert_eq!(kept, capacity);
        assert_eq!(t.index.as_ref().unwrap().capacity(), slots);

        // Staged into its own storage, the rows land without a regrowth.
        let mut staged = t.take_storage();
        assert!(t.columns().iter().all(|c| c.capacity() == 0));
        for (col, more) in staged.iter_mut().zip(batch(false)) {
            col.append(more);
        }
        t.append(staged).unwrap();
        let kept: Vec<usize> = t.columns().iter().map(Column::capacity).collect();
        assert_eq!(kept, capacity);
        assert_eq!(t.index.as_ref().unwrap().capacity(), slots);
        assert_eq!(t.columns(), &batch(false)[..]);
        assert_eq!(position(&t, Value::Int(4999)), Some(4999));
        let err = insert(&mut t, vec![Value::Int(3), Value::Double(0.0)]).unwrap_err();
        assert_eq!(err, Error::DuplicateKey { table: "yd".into() });
    }

    #[test]
    fn a_refused_batch_leaves_no_mask_on_the_storage_it_lends() {
        let mut t = Table::new("yd", yd_schema());
        let nulls = Column::I64(vec![1, 0, 1], Some(vec![true, false, true]));
        let refused = t.append(vec![nulls, Column::F64(vec![0.0; 3], None)]);
        assert!(refused.is_err());
        let mut staged = t.take_storage();
        let batch = [
            Column::I64(vec![1, 2], None),
            Column::F64(vec![0.5, 1.5], None),
        ];
        for (col, more) in staged.iter_mut().zip(batch) {
            col.append(more);
        }
        t.append(staged).unwrap();
        // What the streamed aggregate asks of its key column.
        assert!(matches!(&t.columns()[0], Column::I64(v, None) if v == &[1, 2]));
    }

    #[test]
    fn keyless_table_allows_duplicates() {
        let schema = Schema::keyless(vec![ColumnDef::double("w")]).unwrap();
        let mut t = Table::new("w", schema);
        insert(&mut t, vec![Value::Double(0.5)]).unwrap();
        insert(&mut t, vec![Value::Double(0.5)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(position(&t, Value::Double(0.5)), None);
    }
}
