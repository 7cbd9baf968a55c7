//! The engine's one hash table: open addressing over keys held as columns.
//!
//! A [`KeyTable`] maps a key to a *position* — the row of a table, the
//! number of a group, the number of a distinct join key — and stores
//! nothing else: a power-of-two vector of `u32` slots, at most half of
//! them taken, probed linearly from the slot the hash's top bits name.
//! The key cells live in typed [`Column`]s its user owns; hashing reads
//! them a column at a time ([`hash_rows`]) and equality is a
//! [`KeyView`]'s — [`Value`]'s `==`: NULL equals NULL, `1 = 1.0`,
//! `-0.0 = 0.0`, every NaN one value, BIGINTs exact past 2^53. A view
//! resolves each key column's cell type once per batch: a BIGINT or
//! DOUBLE column without NULLs compares as `i64`s or `f64`s, anything
//! else as values. No key is ever boxed into a row to be looked up.
//! Every operation takes the hashes it needs as `u64`s already computed,
//! so a test may hand in colliding ones.
//!
//! Three users, one probe loop ([`KeyTable`]'s `locate`):
//!
//! * a [`crate::table::Table`]'s primary-key index, over the table's own
//!   columns (positions are row positions);
//! * the GROUP BY table ([`crate::exec::aggregate`]), a [`KeySet`]: the
//!   distinct keys in first-seen order, one column per GROUP BY
//!   expression, each key kept as the value that arrived first —
//!   `Int(1)` stays `Int(1)` when `Double(1.0)` joins its group, `-0.0`
//!   stays `-0.0`; a key cell of another variant than the column holds
//!   demotes the column to [`Column::Val`] rather than coercing anything;
//! * the build side of a hash join whose keys are not the build table's
//!   primary key ([`JoinTable`]): a [`KeySet`] of the distinct non-NULL
//!   build keys plus a CSR pair — `offsets[id]..offsets[id + 1]` is the
//!   stretch of `positions` holding key `id`'s build rows, ascending —
//!   instead of one vector per key.
//!
//! The hash is a fixed multiplicative mix, not keyed: all three are as
//! exposed to crafted colliding keys as to any other quadratic statement
//! a client may send (DESIGN.md, "One hash table"); the per-batch
//! deadline check of the SELECT pipeline bounds such a statement like
//! any other.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::expr::Column;
use crate::value::Value;

/// A slot that holds no position, and a probe's "no match".
pub const NO_ROW: u32 = u32::MAX;

/// Most keys a table holds: positions are `u32`, and [`NO_ROW`] is not a
/// position. (Lowered for this crate's unit tests, which fill one.)
pub const MAX_KEYS: usize = if cfg!(test) { 1 << 16 } else { NO_ROW as usize };

/// Fold one key cell's hash image into `h`.
fn mix(h: u64, bits: u64) -> u64 {
    (h.rotate_left(5) ^ bits).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The hash image of a number: its double (so `Int(1)` and `Double(1.0)`
/// meet), `-0.0` as `0.0`, every NaN alike — what [`Value`]'s `Hash` feeds.
fn number_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Fold the cells of rows `start..start + hashes.len()` of `col` into
/// `hashes`, one key column of a composite key at a time.
fn fold_hashes(col: &Column, start: usize, hashes: &mut [u64]) {
    // Any constant no number's image is likely to equal.
    const NULL_BITS: u64 = 0x6e75_6c6c_6e75_6c6c;
    let rows = start..start + hashes.len();
    match col {
        Column::F64(v, None) => {
            for (h, x) in hashes.iter_mut().zip(&v[rows]) {
                *h = mix(*h, number_bits(*x));
            }
        }
        Column::I64(v, None) => {
            for (h, x) in hashes.iter_mut().zip(&v[rows]) {
                *h = mix(*h, number_bits(*x as f64));
            }
        }
        _ => {
            for (h, pos) in hashes.iter_mut().zip(rows) {
                let bits = match col.value(pos) {
                    Value::Null => NULL_BITS,
                    Value::Str(s) => {
                        let mut hasher = std::collections::hash_map::DefaultHasher::new();
                        s.hash(&mut hasher);
                        hasher.finish()
                    }
                    number => number_bits(number.as_f64().expect("a number")),
                };
                *h = mix(*h, bits);
            }
        }
    }
}

/// Hashes of the keys `cols` hold in `rows`, one column per key cell:
/// equal keys ([`KeyView::eq`]) hash alike whatever variants carry them.
pub fn hash_rows<K: Borrow<Column>>(cols: &[K], rows: Range<usize>) -> Vec<u64> {
    let mut hashes = vec![0; rows.len()];
    for col in cols {
        fold_hashes(col.borrow(), rows.start, &mut hashes);
    }
    hashes
}

/// One key column's cells, their type resolved once.
#[derive(Debug, Clone, Copy)]
enum Cells<'a> {
    /// BIGINT without NULLs.
    I64(&'a [i64]),
    /// DOUBLE without NULLs.
    F64(&'a [f64]),
    /// VARCHAR, a column with NULLs or one of mixed variants.
    Any(&'a Column),
}

impl Cells<'_> {
    fn value(self, i: usize) -> Value {
        match self {
            Cells::I64(v) => Value::Int(v[i]),
            Cells::F64(v) => Value::Double(v[i]),
            Cells::Any(col) => col.value(i),
        }
    }

    /// Is cell `i` cell `j` of `other`, as [`Value`]'s `==` has it?
    #[inline]
    fn eq(self, i: usize, other: Cells<'_>, j: usize) -> bool {
        match (self, other) {
            (Cells::I64(a), Cells::I64(b)) => a[i] == b[j],
            // `==` has -0.0 = 0.0; every NaN is one key.
            (Cells::F64(a), Cells::F64(b)) => a[i] == b[j] || (a[i].is_nan() && b[j].is_nan()),
            (a, b) => a.value(i) == b.value(j),
        }
    }
}

/// Key columns — a batch's, or the keys a table holds — with each
/// column's cell type resolved once, for as long as the columns do not
/// change: what every `is_key` the probe loop asks compares by.
#[derive(Debug, Clone)]
pub struct KeyView<'a> {
    cells: Vec<Cells<'a>>,
}

impl<'a> KeyView<'a> {
    /// The view of `cols`, one column per key cell.
    pub fn new<K: Borrow<Column>>(cols: &'a [K]) -> KeyView<'a> {
        let cells = cols.iter().map(|col| match col.borrow() {
            Column::I64(v, None) => Cells::I64(v),
            Column::F64(v, None) => Cells::F64(v),
            col => Cells::Any(col),
        });
        KeyView {
            cells: cells.collect(),
        }
    }

    /// Is the key in row `i` the key in row `j` of `other`, cell by cell
    /// as [`Value`]'s `==` has it?
    #[inline]
    pub fn eq(&self, i: usize, other: &KeyView<'_>, j: usize) -> bool {
        let mut cells = self.cells.iter().zip(&other.cells);
        cells.all(|(a, b)| a.eq(i, *b, j))
    }

    /// Does the key in row `i` have a NULL cell?
    pub fn has_null(&self, i: usize) -> bool {
        let null = |c: &Cells<'_>| matches!(c, Cells::Any(col) if col.is_null(i));
        self.cells.iter().any(null)
    }
}

/// Positions by key: the slots of an open-addressing hash table whose
/// keys are stored elsewhere. The keys it holds are numbered
/// `0..len()` in the order they were entered.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    /// A power-of-two number of slots (none until the first
    /// [`KeyTable::reserve`]), each a position or [`NO_ROW`], at most
    /// half of them taken; a key sits at or after the slot its hash's
    /// top bits name.
    slots: Vec<u32>,
    len: usize,
}

impl KeyTable {
    /// An empty table.
    pub fn new() -> KeyTable {
        KeyTable::default()
    }

    /// Number of keys entered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no key has been entered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keys the slots hold room for: entering that many places none
    /// again.
    pub fn capacity(&self) -> usize {
        self.slots.len() / 2
    }

    /// Forget every key; the slots stay allocated.
    pub fn clear(&mut self) {
        self.slots.fill(NO_ROW);
        self.len = 0;
    }

    /// Walk the slots a key hashing to `hash` may sit in, first choice
    /// first, up to the one whose position `is_key` accepts or the first
    /// free one: that slot and what it holds. The engine's one probe
    /// loop; it ends because at most half of the slots are taken.
    fn locate(&self, hash: u64, mut is_key: impl FnMut(usize) -> bool) -> (usize, u32) {
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let pos = self.slots[slot];
            if pos == NO_ROW || is_key(pos as usize) {
                return (slot, pos);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Make room for `more` further keys. When that takes more slots,
    /// every key already entered is placed again, by `stored()`: the
    /// hashes of keys `0..len()`.
    pub fn reserve<H: AsRef<[u64]>>(&mut self, more: usize, stored: impl FnOnce() -> H) {
        let want = (self.len + more) * 2;
        if want <= self.slots.len() {
            return;
        }
        self.slots = vec![NO_ROW; want.next_power_of_two().max(8)];
        let hashes = stored();
        let hashes = hashes.as_ref();
        assert_eq!(hashes.len(), self.len, "one hash per key entered");
        for (pos, &hash) in hashes.iter().enumerate() {
            // Keys entered are distinct: each takes the first free slot.
            let (slot, _) = self.locate(hash, |_| false);
            self.slots[slot] = pos as u32;
        }
    }

    /// The position of the key hashing to `hash` that `is_key` accepts
    /// (it is asked about the positions sharing the key's probe chain),
    /// [`NO_ROW`] if there is none.
    pub fn find(&self, hash: u64, is_key: impl FnMut(usize) -> bool) -> u32 {
        if self.slots.is_empty() {
            return NO_ROW;
        }
        self.locate(hash, is_key).1
    }

    /// [`KeyTable::find`], or enter the key as position `len()`: the
    /// position and whether it is new. `None` when the key is new and
    /// the table holds [`MAX_KEYS`] already.
    ///
    /// # Panics
    /// If no room was [`KeyTable::reserve`]d for a new key.
    pub fn enter(&mut self, hash: u64, is_key: impl FnMut(usize) -> bool) -> Option<(u32, bool)> {
        assert!(
            (self.len + 1) * 2 <= self.slots.len(),
            "room is reserved before a key is entered"
        );
        let (slot, pos) = self.locate(hash, is_key);
        if pos != NO_ROW {
            return Some((pos, false));
        }
        if self.len == MAX_KEYS {
            return None;
        }
        self.slots[slot] = self.len as u32;
        self.len += 1;
        Some((self.slots[slot], true))
    }

    /// The probe side of a join: for each row `i < hashes.len()` of the
    /// key columns `keys` (hashing to `hashes[i]`), the position
    /// `is_key(i, position)` accepts, [`NO_ROW`] where there is none —
    /// and, SQL join semantics, where a cell of the key is NULL. A row
    /// whose key is the row before's — a probe side in key order, as a
    /// join's output often is — takes that row's answer without a walk.
    pub fn probe(
        &self,
        keys: &KeyView<'_>,
        hashes: &[u64],
        is_key: impl Fn(usize, usize) -> bool,
    ) -> Vec<u32> {
        let mut hits: Vec<u32> = Vec::with_capacity(hashes.len());
        for (i, &hash) in hashes.iter().enumerate() {
            let hit = match hits.last() {
                Some(&last) if hash == hashes[i - 1] && keys.eq(i - 1, keys, i) => last,
                _ if keys.has_null(i) => NO_ROW,
                _ => self.find(hash, |pos| is_key(i, pos)),
            };
            hits.push(hit);
        }
        hits
    }
}

/// Distinct keys in first-seen order, held as one column per key cell,
/// under the [`KeyTable`] that finds them: key `id` is row `id` of
/// [`KeySet::columns`]. NULL is a key cell like any other here — GROUP
/// BY puts NULLs in one group; a join keeps NULL keys out
/// ([`JoinBuild::push`]).
#[derive(Debug, Clone, Default)]
pub struct KeySet {
    cols: Vec<Column>,
    /// The hash each key was entered under, for [`KeyTable::reserve`].
    hashes: Vec<u64>,
    index: KeyTable,
}

impl KeySet {
    /// An empty set of keys of `arity` cells.
    pub fn new(arity: usize) -> KeySet {
        KeySet {
            cols: vec![Column::Val(Vec::new()); arity],
            hashes: Vec::new(),
            index: KeyTable::new(),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True iff the set holds no key.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The keys, one column per key cell, in first-seen order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// The keys, handed over: what [`KeySet::columns`] lends.
    pub fn into_columns(self) -> Vec<Column> {
        self.cols
    }

    /// Key `id`, materialized.
    pub fn key(&self, id: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(id)).collect()
    }

    /// Make room for `more` further keys.
    pub fn reserve(&mut self, more: usize) {
        self.index.reserve(more, || &self.hashes[..]);
    }

    /// The id of the key in row `row` of `keys` (hashing to `hash`),
    /// entered as a new key — exactly as it is, variant and sign of zero
    /// kept — if the set does not hold it: the id and whether it is new.
    /// `None` when it is new and the set holds [`MAX_KEYS`] already.
    ///
    /// # Panics
    /// If no room was [`KeySet::reserve`]d for a new key.
    pub fn intern(&mut self, keys: &[Column], row: usize, hash: u64) -> Option<(u32, bool)> {
        let mut found = None;
        let result = self.intern_rows(keys, [(row, hash)], |_, entered| {
            found = entered;
            Ok::<(), ()>(())
        });
        result.ok().and(found)
    }

    /// [`KeySet::intern`] for a batch: the key in each row of `keys`
    /// that `rows` names (with its hash), in that order, under one view
    /// of the batch's key columns and one of the set's. `found(row,
    /// entered)` is told each row's id and whether it is new — `None`
    /// when the set is full — and stops the batch by failing.
    ///
    /// # Panics
    /// If no room was [`KeySet::reserve`]d for a new key.
    pub fn intern_rows<E>(
        &mut self,
        keys: &[Column],
        rows: impl IntoIterator<Item = (usize, u64)>,
        mut found: impl FnMut(usize, Option<(u32, bool)>) -> Result<(), E>,
    ) -> Result<(), E> {
        let KeySet {
            cols,
            hashes,
            index,
        } = self;
        let before = hashes.len();
        // The row each key new to the set arrived in: its cells stay in
        // the batch, and join the set's columns once the batch is done.
        let mut firsts = Vec::new();
        let (held, batch) = (KeyView::new(cols), KeyView::new(keys));
        let mut result = Ok(());
        for (row, hash) in rows {
            let is_key = |id: usize| {
                hashes[id] == hash
                    && match id.checked_sub(before) {
                        None => held.eq(id, &batch, row),
                        Some(k) => batch.eq(firsts[k], &batch, row),
                    }
            };
            let entered = index.enter(hash, is_key);
            if let Some((_, true)) = entered {
                hashes.push(hash);
                firsts.push(row);
            }
            result = found(row, entered);
            if result.is_err() {
                break;
            }
        }
        for (col, key) in cols.iter_mut().zip(keys) {
            firsts.iter().for_each(|&row| col.push_cell(key, row));
        }
        result
    }

    /// The id of the key in each row `i < hashes.len()` of `keys`,
    /// [`NO_ROW`] for a key the set does not hold or one with a NULL
    /// cell ([`KeyTable::probe`]).
    pub fn probe(&self, keys: &[Column], hashes: &[u64]) -> Vec<u32> {
        let (batch, held) = (KeyView::new(keys), KeyView::new(&self.cols));
        self.index.probe(&batch, hashes, |i, id| {
            self.hashes[id] == hashes[i] && batch.eq(i, &held, id)
        })
    }
}

/// The build side of a hash join while it is scanned.
#[derive(Debug)]
pub struct JoinBuild {
    keys: KeySet,
    /// `(key id, build position)` of every row entered, in build order.
    rows: Vec<(u32, u32)>,
}

impl JoinBuild {
    /// An empty build side with keys of `arity` cells.
    pub fn new(arity: usize) -> JoinBuild {
        JoinBuild {
            keys: KeySet::new(arity),
            rows: Vec::new(),
        }
    }

    /// Enter rows `i < hashes.len()` of the key columns `keys`, row `i`
    /// sitting at build position `positions[i]`. A row whose key has a
    /// NULL cell is left out: it can match nothing. `entered(i, new)` is
    /// called for each row as it goes in — `new` when its key is the
    /// first of its kind — and stops the build by failing.
    pub fn push<E>(
        &mut self,
        keys: &[Column],
        hashes: &[u64],
        positions: &[u32],
        mut entered: impl FnMut(usize, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        self.keys.reserve(hashes.len());
        let view = KeyView::new(keys);
        let rows = hashes.iter().copied().enumerate();
        let rows = rows.filter(|&(i, _)| !view.has_null(i));
        let build = &mut self.rows;
        self.keys.intern_rows(keys, rows, |i, found| {
            let (id, new) = found.expect("a build side is no longer than a table");
            build.push((id, positions[i]));
            entered(i, new)
        })
    }

    /// Lay the rows out by key: a counting sort, stable, so each key's
    /// positions keep build order.
    pub fn finish(self) -> JoinTable {
        let mut offsets = vec![0u32; self.keys.len() + 1];
        for &(id, _) in &self.rows {
            offsets[id as usize + 1] += 1;
        }
        for id in 0..self.keys.len() {
            offsets[id + 1] += offsets[id];
        }
        let mut next = offsets.clone();
        let mut positions = vec![0; self.rows.len()];
        for &(id, position) in &self.rows {
            positions[next[id as usize] as usize] = position;
            next[id as usize] += 1;
        }
        JoinTable {
            keys: self.keys,
            offsets,
            positions,
        }
    }
}

/// The build side of a hash join, built: each distinct key's build
/// positions in build order.
#[derive(Debug)]
pub struct JoinTable {
    keys: KeySet,
    /// Key `id`'s rows are `positions[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl JoinTable {
    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of build rows held (those with no NULL in their key).
    pub fn rows(&self) -> usize {
        self.positions.len()
    }

    /// The id of the build key each row `i < hashes.len()` of the probe
    /// key columns `keys` matches; [`NO_ROW`] where it matches none.
    pub fn probe(&self, keys: &[Column], hashes: &[u64]) -> Vec<u32> {
        self.keys.probe(keys, hashes)
    }

    /// The build positions holding key `id`, in build order.
    pub fn matches(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.positions[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Group the rows of one BIGINT column under the hashes given.
    fn intern_all(set: &mut KeySet, vals: &[i64], hashes: &[u64]) -> Vec<u32> {
        let keys = [Column::I64(vals.to_vec(), None)];
        set.reserve(vals.len());
        (0..vals.len())
            .map(|i| set.intern(&keys, i, hashes[i]).unwrap().0)
            .collect()
    }

    #[test]
    fn all_equal_hashes_leave_every_operation_correct() {
        // One probe chain holds every key: equality alone tells them
        // apart, first-seen order is kept, and growth (8 slots to 4096)
        // places every key again.
        let vals: Vec<i64> = (0..1500).map(|i| (i * 7) % 1000).collect();
        let mut set = KeySet::new(1);
        let mut ids = Vec::new();
        for chunk in vals.chunks(100) {
            ids.extend(intern_all(&mut set, chunk, &vec![42; chunk.len()]));
        }
        assert_eq!(set.len(), 1000);
        for (i, v) in vals.iter().enumerate() {
            let first = vals.iter().position(|w| w == v).unwrap();
            assert_eq!(set.key(ids[i] as usize), vec![Value::Int(*v)]);
            assert_eq!(ids[i], ids[first]);
        }
        let firsts: Vec<Value> = (0..1000).map(|id| set.key(id).remove(0)).collect();
        let mut seen = Vec::new();
        for v in &vals {
            if !seen.contains(&Value::Int(*v)) {
                seen.push(Value::Int(*v));
            }
        }
        assert_eq!(firsts, seen);
        // Probing: present keys (as the doubles they equal), an absent
        // key, a NULL.
        let probe = Column::from_values(vec![
            Value::Double(7.0),
            Value::Double(1000.0),
            Value::Null,
            Value::Double(0.0),
        ]);
        let hits = set.probe(&[probe], &[42; 4]);
        assert_eq!(hits, vec![1, NO_ROW, NO_ROW, 0]);
    }

    #[test]
    fn a_full_table_refuses_a_new_key_and_still_finds_the_old() {
        let mut table = KeyTable::new();
        let hashes: Vec<u64> = (0..MAX_KEYS as u64 + 1)
            .map(|i| mix(0, number_bits(i as f64)))
            .collect();
        let mut entered: Vec<u64> = Vec::new();
        for (i, &hash) in hashes[..MAX_KEYS].iter().enumerate() {
            table.reserve(1, || &entered[..]);
            let is_key = |pos: usize| entered[pos] == hash;
            assert_eq!(table.enter(hash, is_key), Some((i as u32, true)));
            entered.push(hash);
        }
        assert_eq!(table.len(), MAX_KEYS);
        table.reserve(1, || &entered[..]);
        let last = hashes[MAX_KEYS];
        assert_eq!(table.enter(last, |pos| entered[pos] == last), None);
        assert_eq!(table.len(), MAX_KEYS);
        let old = hashes[17];
        assert_eq!(
            table.enter(old, |pos| entered[pos] == old),
            Some((17, false))
        );
        assert_eq!(table.find(last, |pos| entered[pos] == last), NO_ROW);
    }

    #[test]
    fn first_arrivals_are_kept_exactly_and_a_foreign_cell_demotes_the_column() {
        let mut set = KeySet::new(1);
        let ints = [Column::I64(vec![1, 2], None)];
        let hashes = hash_rows(&ints, 0..2);
        set.reserve(2);
        assert_eq!(set.intern(&ints, 0, hashes[0]), Some((0, true)));
        assert_eq!(set.intern(&ints, 1, hashes[1]), Some((1, true)));
        assert!(matches!(set.columns()[0], Column::I64(..)));
        // 1.0 joins Int(1)'s group; -0.0 and NULL are new keys and the
        // column, now of mixed variants, holds each as it came.
        let doubles = [Column::F64(
            vec![1.0, -0.0, 0.0, 9.0],
            Some(vec![true, true, true, false]),
        )];
        let hashes = hash_rows(&doubles, 0..4);
        set.reserve(4);
        let ids: Vec<u32> = (0..4)
            .map(|i| set.intern(&doubles, i, hashes[i]).unwrap().0)
            .collect();
        assert_eq!(ids, vec![0, 2, 2, 3]);
        assert!(matches!(set.key(0)[0], Value::Int(1)));
        assert!(matches!(set.key(2)[0], Value::Double(z) if z.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(set.key(3)[0], Value::Null));
        assert!(matches!(set.columns()[0], Column::Val(_)));
    }

    #[test]
    fn a_join_table_returns_each_keys_rows_in_build_order_and_skips_nulls() {
        let keys = [Column::I64(
            vec![5, 6, 5, 0, 6, 5],
            Some(vec![true, true, true, false, true, true]),
        )];
        let positions = [10, 11, 12, 13, 14, 15];
        let mut build = JoinBuild::new(1);
        let mut log = Vec::new();
        // Colliding hashes for the two keys.
        build
            .push(&keys, &[9; 6], &positions, |i, new| {
                log.push((i, new));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(
            log,
            vec![(0, true), (1, true), (2, false), (4, false), (5, false)]
        );
        let table = build.finish();
        assert_eq!((table.distinct_keys(), table.rows()), (2, 5));
        let probe = Column::from_values(vec![
            Value::Int(6),
            Value::Null,
            Value::Double(5.0),
            Value::Int(7),
        ]);
        let ids = table.probe(&[probe], &[9; 4]);
        assert_eq!(ids, vec![1, NO_ROW, 0, NO_ROW]);
        assert_eq!(table.matches(0), &[10, 12, 15]);
        assert_eq!(table.matches(1), &[11, 14]);
        // A stopped build reports why.
        let mut build = JoinBuild::new(1);
        let stop = build.push(&keys, &[9; 6], &positions, |i, _| {
            if i == 2 {
                Err("budget")
            } else {
                Ok(())
            }
        });
        assert_eq!(stop, Err("budget"));
    }
}
