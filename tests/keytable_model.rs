//! `sqlengine::keytable` — the engine's one hash table, as the GROUP BY
//! table (`KeySet`) and as a join's build side (`JoinBuild` →
//! `JoinTable`) — against the obvious model: a `Vec` of first-seen keys
//! and a `BTreeMap` from key to its number.
//!
//! Part one feeds seeded random batches of one to three key columns —
//! BIGINT (±2^53 ± 1 among them), DOUBLE (±0.0, NaNs of two payloads,
//! integers as doubles), VARCHAR, NULLs, and batches whose column comes
//! in another variant than the one before, or in mixed variants — under
//! the hashes the engine computes, under hashes squeezed onto four
//! values and under one hash for every key (the API takes the hashes, so
//! collisions can be forced). Group ids must be the model's, batch after
//! batch and across every growth of the slots; the keys held must be the
//! first arrivals value for value — variant, sign of zero, NaN payload;
//! NULLs must group together under GROUP BY and match nothing in a join;
//! a repeated build key must return its build positions ascending.
//!
//! The same checks then run against two broken tables — compositions of
//! the public `KeyTable` primitive that take equal hashes for equal keys,
//! or that let a NULL key match in a join — and must reject both (and
//! accept the composition with neither fault): the assertions can tell.
//!
//! Part two asks whole statements: GROUP BY and a built (non-primary-key)
//! hash join over a table of such keys return what the model says, in
//! its order, over the whole table and merged from the partial results
//! of 1, 2 and 4 shards.
//!
//! Part three holds an over-budget built join and an over-budget GROUP BY
//! to the error the parent build raised — context, the row it fails at
//! (through the bytes charged by then) — and a GROUP BY whose keys all
//! share one probe chain to the statement deadline.
//!
//! Part four feeds batches without a NULL — BIGINT (±2^53 ± 1, 0),
//! DOUBLE (NaNs of two payloads, ±0.0, integers as doubles), a BIGINT ×
//! DOUBLE composite, and a column that is BIGINT in the first batch and
//! DOUBLE after it — the columns a key view compares as `i64`s and
//! `f64`s. The checks of part one hold for the engine's tables, row by
//! row and a batch at a time, and a `Table`'s primary-key index must
//! refuse a repeated key and find each key the model finds. Two
//! compositions whose typed DOUBLE compare has NaN ≠ NaN, or −0.0 ≠ 0.0,
//! must be rejected.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use prng::{Rng, StdRng};
use sqlengine::expr::Column;
use sqlengine::keytable::{hash_rows, JoinBuild, KeySet, KeyTable, NO_ROW};
use sqlengine::resource::MemoryBudget;
use sqlengine::schema::{self, Schema};
use sqlengine::table::Table;
use sqlengine::{DataType, Database, Error, PartialAggResult, QueryResult, Value};

mod common;
use common::keys::{key_cell, same_value, KeyCell};

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

fn model_key(key: &[Value]) -> Vec<KeyCell> {
    key.iter().map(key_cell).collect()
}

fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_value(x, y))
}

/// Distinct keys in first-seen order and the number of each.
#[derive(Default)]
struct Model {
    first_seen: Vec<Vec<Value>>,
    ids: BTreeMap<Vec<KeyCell>, u32>,
}

impl Model {
    fn group(&mut self, key: &[Value]) -> u32 {
        let next = self.first_seen.len() as u32;
        let id = *self.ids.entry(model_key(key)).or_insert(next);
        if id == next {
            self.first_seen.push(key.to_vec());
        }
        id
    }
}

// ---------------------------------------------------------------------
// Part one: the tables under test, behind what the checks ask of them
// ---------------------------------------------------------------------

/// One batch: rows of key values, the columns they arrive as, their
/// hashes.
struct KeyBatch {
    rows: Vec<Vec<Value>>,
    cols: Vec<Column>,
    hashes: Vec<u64>,
}

trait Subject {
    /// A fresh table for keys of `arity` cells.
    fn fresh(&self, arity: usize) -> Box<dyn Subject>;
    /// The group of every row of the batch, new keys entered.
    fn group(&mut self, batch: &KeyBatch) -> Vec<u32>;
    /// The keys held, in id order.
    fn keys(&self) -> Vec<Vec<Value>>;
    /// Build a join over `build` (batch `b`'s row `i` at position
    /// `positions[b][i]`) and return each probe row's build positions.
    fn join(&self, build: &[KeyBatch], positions: &[Vec<u32>], probe: &KeyBatch) -> Vec<Vec<u32>>;
}

/// The engine's own compositions.
struct Engine(KeySet);

impl Subject for Engine {
    fn fresh(&self, arity: usize) -> Box<dyn Subject> {
        Box::new(Engine(KeySet::new(arity)))
    }

    fn group(&mut self, batch: &KeyBatch) -> Vec<u32> {
        self.0.reserve(batch.hashes.len());
        let id = |(i, &hash)| self.0.intern(&batch.cols, i, hash).expect("room").0;
        batch.hashes.iter().enumerate().map(id).collect()
    }

    fn keys(&self) -> Vec<Vec<Value>> {
        assert!(self.0.columns().iter().all(|c| c.len() == self.0.len()));
        (0..self.0.len()).map(|id| self.0.key(id)).collect()
    }

    fn join(&self, build: &[KeyBatch], positions: &[Vec<u32>], probe: &KeyBatch) -> Vec<Vec<u32>> {
        let mut join = JoinBuild::new(probe.cols.len());
        let mut entered = 0;
        for (batch, positions) in build.iter().zip(positions) {
            let count = |_, _| {
                entered += 1;
                Ok::<(), ()>(())
            };
            join.push(&batch.cols, &batch.hashes, positions, count)
                .expect("nothing stops this build");
        }
        let table = join.finish();
        assert_eq!(table.rows(), entered);
        let ids = table.probe(&probe.cols, &probe.hashes);
        assert!(ids
            .iter()
            .all(|&id| id == NO_ROW || (id as usize) < table.distinct_keys()));
        let rows = |&id: &u32| match id {
            NO_ROW => Vec::new(),
            id => table.matches(id).to_vec(),
        };
        ids.iter().map(rows).collect()
    }
}

/// The engine's GROUP BY table a batch at a time (`KeySet::intern_rows`).
struct Batched(Engine);

impl Subject for Batched {
    fn fresh(&self, arity: usize) -> Box<dyn Subject> {
        Box::new(Batched(Engine(KeySet::new(arity))))
    }

    fn group(&mut self, batch: &KeyBatch) -> Vec<u32> {
        let set = &mut self.0 .0;
        set.reserve(batch.hashes.len());
        let mut ids = Vec::new();
        let rows = batch.hashes.iter().copied().enumerate();
        let found = |_, entered: Option<(u32, bool)>| {
            ids.push(entered.expect("room").0);
            Ok::<(), ()>(())
        };
        set.intern_rows(&batch.cols, rows, found).unwrap();
        ids
    }

    fn keys(&self) -> Vec<Vec<Value>> {
        self.0.keys()
    }

    fn join(&self, build: &[KeyBatch], positions: &[Vec<u32>], probe: &KeyBatch) -> Vec<Vec<u32>> {
        self.0.join(build, positions, probe)
    }
}

/// A table put together from the public `KeyTable` primitive, keys held
/// as rows — with a fault, if asked for one.
#[derive(Default)]
struct Composed {
    /// Take two keys of one hash for one key.
    hashes_only: bool,
    /// Let a NULL key cell match in a join as it does under GROUP BY.
    no_null_rule: bool,
    /// Compare two DOUBLE cells with this instead of the model.
    double_eq: Option<fn(f64, f64) -> bool>,
    keys: Vec<Vec<Value>>,
    hashes: Vec<u64>,
    index: KeyTable,
}

impl Composed {
    fn faulty(hashes_only: bool, no_null_rule: bool) -> Composed {
        Composed {
            hashes_only,
            no_null_rule,
            ..Composed::default()
        }
    }

    /// An empty table with this one's faults.
    fn like(&self) -> Composed {
        Composed {
            double_eq: self.double_eq,
            ..Composed::faulty(self.hashes_only, self.no_null_rule)
        }
    }

    fn is_key(&self, id: usize, key: &[Value], hash: u64) -> bool {
        let cells_eq = |a: &Value, b: &Value| match (a, b, self.double_eq) {
            (Value::Double(x), Value::Double(y), Some(eq)) => eq(*x, *y),
            _ => key_cell(a) == key_cell(b),
        };
        let held = &self.keys[id];
        self.hashes[id] == hash
            && (self.hashes_only || held.iter().zip(key).all(|(a, b)| cells_eq(a, b)))
    }

    fn intern(&mut self, key: &[Value], hash: u64) -> u32 {
        let mut index = std::mem::take(&mut self.index);
        index.reserve(1, || &self.hashes[..]);
        let (id, new) = index
            .enter(hash, |id| self.is_key(id, key, hash))
            .expect("room");
        self.index = index;
        if new {
            self.keys.push(key.to_vec());
            self.hashes.push(hash);
        }
        id
    }
}

impl Subject for Composed {
    fn fresh(&self, _arity: usize) -> Box<dyn Subject> {
        Box::new(self.like())
    }

    fn group(&mut self, batch: &KeyBatch) -> Vec<u32> {
        let rows = batch.rows.iter().zip(&batch.hashes);
        rows.map(|(key, &hash)| self.intern(key, hash)).collect()
    }

    fn keys(&self) -> Vec<Vec<Value>> {
        self.keys.clone()
    }

    fn join(&self, build: &[KeyBatch], positions: &[Vec<u32>], probe: &KeyBatch) -> Vec<Vec<u32>> {
        let mut keys = self.like();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let skip = |key: &[Value]| !self.no_null_rule && key.iter().any(Value::is_null);
        for (batch, positions) in build.iter().zip(positions) {
            for ((key, &hash), &position) in batch.rows.iter().zip(&batch.hashes).zip(positions) {
                if skip(key) {
                    continue;
                }
                let id = keys.intern(key, hash) as usize;
                rows.resize(keys.keys.len(), Vec::new());
                rows[id].push(position);
            }
        }
        let find = |(key, &hash): (&Vec<Value>, &u64)| {
            if skip(key) {
                return Vec::new();
            }
            match keys.index.find(hash, |id| keys.is_key(id, key, hash)) {
                NO_ROW => Vec::new(),
                id => rows[id as usize].clone(),
            }
        };
        probe.rows.iter().zip(&probe.hashes).map(find).collect()
    }
}

// ---------------------------------------------------------------------
// Part one: generators and checks
// ---------------------------------------------------------------------

const TWO_53: i64 = 1 << 53;

/// How the hashes of a sequence are made from the engine's.
#[derive(Debug, Clone, Copy)]
enum Hashing {
    Engine,
    /// Four hash values, in the top bits, where the slot is read.
    Squeezed,
    /// Every key in one probe chain.
    Constant,
}

/// What a key column of a batch draws its cells from.
#[derive(Debug, Clone, Copy)]
enum Kind {
    BigInt,
    Double,
    Varchar,
    Mixed,
}

fn random_cell(rng: &mut StdRng, kind: Kind, spread: usize) -> Value {
    let n = rng.random_range(0..spread) as i64;
    let odds = if spread <= 40 { 3 } else { 60 };
    let special = (rng.random_range(0..odds) == 0).then(|| rng.random_range(0..8usize));
    match (kind, special) {
        (Kind::Mixed, _) => {
            let kind = [Kind::BigInt, Kind::Double, Kind::Varchar][rng.random_range(0..3usize)];
            random_cell(rng, kind, spread)
        }
        (_, Some(0)) => Value::Null,
        (Kind::BigInt, Some(1)) => Value::Int(TWO_53 + n % 3 - 1),
        (Kind::BigInt, Some(2)) => Value::Int(-TWO_53 + n % 3 - 1),
        (Kind::BigInt, Some(3)) => Value::Int(0),
        (Kind::BigInt, Some(_)) => Value::Int(-n),
        (Kind::BigInt, None) => Value::Int(n),
        (Kind::Double, Some(1)) => Value::Double(f64::NAN),
        (Kind::Double, Some(2)) => Value::Double(0.0),
        (Kind::Double, Some(3)) => Value::Double(-0.0),
        (Kind::Double, Some(4)) => Value::Double(f64::from_bits(f64::NAN.to_bits() | 1)),
        (Kind::Double, Some(5)) => Value::Double(TWO_53 as f64),
        (Kind::Double, Some(6)) => Value::Double(-(TWO_53 as f64)),
        (Kind::Double, Some(_)) => Value::Double(n as f64 + 0.5),
        (Kind::Double, None) => Value::Double(n as f64),
        (Kind::Varchar, Some(k)) => Value::str(["", "a", "b"][k % 3]),
        (Kind::Varchar, None) => Value::str(format!("s{n}")),
    }
}

fn random_batch(
    rng: &mut StdRng,
    arity: usize,
    rows: usize,
    spread: usize,
    hashing: Hashing,
) -> KeyBatch {
    let kinds: Vec<Kind> = (0..arity)
        .map(|_| {
            [
                Kind::BigInt,
                Kind::BigInt,
                Kind::Double,
                Kind::Varchar,
                Kind::Mixed,
            ][rng.random_range(0..5usize)]
        })
        .collect();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| kinds.iter().map(|&k| random_cell(rng, k, spread)).collect())
        .collect();
    key_batch(rows, arity, hashing)
}

/// Rows of `arity` key cells as a batch: one column each, and hashes as
/// `hashing` makes them.
fn key_batch(rows: Vec<Vec<Value>>, arity: usize, hashing: Hashing) -> KeyBatch {
    let column = |c: usize| Column::from_values(rows.iter().map(|r| r[c].clone()).collect());
    let cols: Vec<Column> = (0..arity).map(column).collect();
    let squeeze = |h: u64| match hashing {
        Hashing::Engine => h,
        Hashing::Squeezed => (h >> 62) << 62,
        Hashing::Constant => 0xdead_beef << 32,
    };
    let hashes = hash_rows(&cols, 0..rows.len()).into_iter().map(squeeze);
    KeyBatch {
        hashes: hashes.collect(),
        rows,
        cols,
    }
}

/// Batch `b` of `rows` rows of a sequence.
type Source<'a> = &'a dyn Fn(&mut StdRng, usize, usize) -> KeyBatch;

/// Group one sequence of batches; the first disagreement with the model.
fn check_grouping(subject: &dyn Subject, seed: u64, hashing: Hashing) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.random_range(1..4usize);
    let spread = [3, 40, 700][rng.random_range(0..3usize)];
    let source = |rng: &mut StdRng, _, rows| random_batch(rng, arity, rows, spread, hashing);
    let context = format!("seed {seed} {hashing:?}");
    group_batches(subject, &mut rng, arity, hashing, &source, &context)
}

/// Group the batches `source` draws; the first disagreement with the
/// model.
fn group_batches(
    subject: &dyn Subject,
    rng: &mut StdRng,
    arity: usize,
    hashing: Hashing,
    source: Source<'_>,
    context: &str,
) -> Result<usize, String> {
    // Fewer rows where every lookup walks every key.
    let batches = match hashing {
        Hashing::Engine => 60,
        _ => 12,
    };
    let mut table = subject.fresh(arity);
    let mut model = Model::default();
    for b in 0..batches {
        let rows = rng.random_range(1..200usize);
        let batch = source(rng, b, rows);
        let want: Vec<u32> = batch.rows.iter().map(|key| model.group(key)).collect();
        let got = table.group(&batch);
        if got != want {
            let row = got.iter().zip(&want).position(|(g, w)| g != w);
            return Err(format!(
                "{context} batch {b}: group ids differ at row {row:?}"
            ));
        }
        let held = table.keys();
        if held.len() != model.first_seen.len()
            || !held
                .iter()
                .zip(&model.first_seen)
                .all(|(h, m)| same_row(h, m))
        {
            return Err(format!(
                "{context} batch {b}: the keys held are not the first arrivals"
            ));
        }
    }
    Ok(model.first_seen.len())
}

/// Build and probe one join; the first disagreement with the model.
fn check_join(subject: &dyn Subject, seed: u64, hashing: Hashing) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.random_range(1..4usize);
    let spread = [3, 40][rng.random_range(0..2usize)];
    let source = |rng: &mut StdRng, _, rows| random_batch(rng, arity, rows, spread, hashing);
    let context = format!("seed {seed} {hashing:?}");
    join_batches(subject, &mut rng, arity, &source, &context)
}

/// Build a join over batches `source` draws and probe it with another;
/// the first disagreement with the model.
fn join_batches(
    subject: &dyn Subject,
    rng: &mut StdRng,
    arity: usize,
    source: Source<'_>,
    context: &str,
) -> Result<(), String> {
    let mut next = 0u32;
    let mut build = Vec::new();
    let mut positions = Vec::new();
    let mut model: BTreeMap<Vec<KeyCell>, Vec<u32>> = BTreeMap::new();
    for b in 0..rng.random_range(1..5usize) {
        let rows = rng.random_range(1..150usize);
        let batch = source(rng, b, rows);
        // Filtered build rows: positions ascend with gaps.
        let at: Vec<u32> = (0..batch.rows.len())
            .map(|_| {
                next += rng.random_range(1..4usize) as u32;
                next
            })
            .collect();
        for (key, &position) in batch.rows.iter().zip(&at) {
            if !key.iter().any(Value::is_null) {
                model.entry(model_key(key)).or_default().push(position);
            }
        }
        build.push(batch);
        positions.push(at);
    }
    let probe = source(rng, 1, 300);
    let got = subject.fresh(arity).join(&build, &positions, &probe);
    for (i, key) in probe.rows.iter().enumerate() {
        let want = match key.iter().any(Value::is_null) {
            true => Vec::new(),
            false => model.get(&model_key(key)).cloned().unwrap_or_default(),
        };
        if got[i] != want {
            return Err(format!(
                "{context}: probe row {i} ({key:?}) matches {:?}, the model says {want:?}",
                got[i]
            ));
        }
    }
    Ok(())
}

const HASHINGS: [Hashing; 3] = [Hashing::Engine, Hashing::Squeezed, Hashing::Constant];

/// Every sequence of part one; the first failure.
fn check_all(subject: &dyn Subject) -> Result<usize, String> {
    let mut most_keys = 0;
    for seed in 0..40u64 {
        for hashing in HASHINGS {
            most_keys = most_keys.max(check_grouping(subject, 0x6b65_7900 + seed, hashing)?);
            check_join(subject, 0x6a6f_696e + seed, hashing)?;
        }
    }
    Ok(most_keys)
}

#[test]
fn group_ids_first_seen_keys_and_join_matches_are_the_models() {
    let most_keys = check_all(&Engine(KeySet::new(0))).unwrap();
    // 8 slots at first, at most half taken: a sequence that ends with
    // this many keys crossed nine resize boundaries.
    assert!(
        most_keys > 2048,
        "only {most_keys} keys in the largest table"
    );
}

#[test]
fn the_checks_reject_a_table_that_trusts_hashes_and_one_that_forgets_the_null_rule() {
    check_all(&Composed::faulty(false, false)).expect("the composition without a fault passes");
    // (2^53 + 1 and the double 2^53 share a hash without being squeezed.)
    let trusting = check_all(&Composed::faulty(true, false)).unwrap_err();
    assert!(trusting.contains("group ids differ"), "{trusting}");
    let forgetful = check_all(&Composed::faulty(false, true)).unwrap_err();
    assert!(forgetful.contains("probe row"), "{forgetful}");
}

// ---------------------------------------------------------------------
// Part two: statements, whatever the partitioning
// ---------------------------------------------------------------------

const T_DDL: &str = "CREATE TABLE t (rid BIGINT PRIMARY KEY, a BIGINT, d DOUBLE, s VARCHAR, \
                     pick BIGINT, x DOUBLE)";

/// Rows of `t`: several batches on every shard.
const T_ROWS: usize = 6000;

fn t_rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    (0..T_ROWS)
        .map(|rid| {
            vec![
                Value::Int(rid as i64),
                random_cell(rng, Kind::BigInt, 40),
                random_cell(rng, Kind::Double, 40),
                random_cell(rng, Kind::Varchar, 3),
                random_cell(rng, Kind::BigInt, 3),
                Value::Double(rng.random::<f64>()),
            ]
        })
        .collect()
}

fn database_with(ddl: &str, table: &str, rows: &[Vec<Value>]) -> Database {
    let mut db = Database::new();
    db.execute(ddl).unwrap();
    db.bulk_insert(table, rows.to_vec()).unwrap();
    db
}

/// `(rid, a, d, s, pick, x)` → the key of a GROUP BY shape.
type KeyOf = fn(&[Value]) -> Vec<Value>;

/// `(select list and GROUP BY list, the key it computes)`.
const GROUP_SHAPES: [(&str, KeyOf); 4] = [
    ("a", |r| vec![r[1].clone()]),
    ("d, s", |r| vec![r[2].clone(), r[3].clone()]),
    ("s, a, d", |r| {
        vec![r[3].clone(), r[1].clone(), r[2].clone()]
    }),
    // A key column that comes in mixed variants: BIGINT or DOUBLE by row.
    ("CASE WHEN pick > 0 THEN a ELSE d END", |r| {
        let picked = matches!(r[4], Value::Int(p) if p > 0);
        vec![r[if picked { 1 } else { 2 }].clone()]
    }),
];

fn assert_rows(got: &QueryResult, want: &[Vec<Value>], context: &str) {
    assert_eq!(got.rows.len(), want.len(), "{context}: row count");
    for (i, (g, w)) in got.rows.iter().zip(want).enumerate() {
        assert!(
            same_row(g, w),
            "{context}: row {i} is {g:?}, the model says {w:?}"
        );
    }
}

#[test]
fn statements_group_and_join_as_the_model_says_whatever_the_partitioning() {
    let mut rng = StdRng::seed_from_u64(0x7061_7274);
    let rows = t_rows(&mut rng);
    let mut whole = database_with(T_DDL, "t", &rows);
    let mut shadow = Database::new();
    shadow.execute(T_DDL).unwrap();

    for (list, key_of) in GROUP_SHAPES {
        let sql = format!("SELECT {list}, COUNT(*) FROM t GROUP BY {list}");
        // The model: first-seen keys, a count each.
        let mut model = Model::default();
        let mut counts: Vec<i64> = Vec::new();
        for row in &rows {
            let id = model.group(&key_of(row)) as usize;
            counts.resize(model.first_seen.len(), 0);
            counts[id] += 1;
        }
        let want: Vec<Vec<Value>> = model
            .first_seen
            .iter()
            .zip(&counts)
            .map(|(key, &n)| key.iter().cloned().chain([Value::Int(n)]).collect())
            .collect();

        let got = whole.execute(&sql).unwrap();
        assert_rows(&got, &want, &sql);
        // Contiguous shards, so that first-seen order over the shards in
        // index order is the table's.
        for shards in [1, 2, 4] {
            let mut merged: Option<PartialAggResult> = None;
            for part in rows.chunks(T_ROWS.div_ceil(shards)) {
                let partial = database_with(T_DDL, "t", part)
                    .execute_partial(&sql)
                    .unwrap();
                match &mut merged {
                    None => merged = Some(partial),
                    Some(m) => m.merge(&partial).unwrap(),
                }
            }
            let got = shadow.finalize_partials(&sql, &merged.unwrap()).unwrap();
            assert_rows(&got, &want, &format!("{sql} over {shards} shard(s)"));
        }
    }

    // A built join: `b`'s key is `pos`, not the join's `(a, s)`.
    let b_rows: Vec<Vec<Value>> = (0..500)
        .map(|pos| {
            vec![
                Value::Int(pos),
                random_cell(&mut rng, Kind::Double, 40),
                random_cell(&mut rng, Kind::Varchar, 3),
            ]
        })
        .collect();
    whole
        .execute("CREATE TABLE b (pos BIGINT PRIMARY KEY, a DOUBLE, s VARCHAR)")
        .unwrap();
    whole.bulk_insert("b", b_rows.clone()).unwrap();
    let mut by_key: BTreeMap<Vec<KeyCell>, Vec<i64>> = BTreeMap::new();
    for (pos, row) in b_rows.iter().enumerate() {
        if !row[1..].iter().any(Value::is_null) {
            by_key
                .entry(model_key(&row[1..]))
                .or_default()
                .push(pos as i64);
        }
    }
    let mut want = Vec::new();
    for row in &rows {
        let key = [row[1].clone(), row[3].clone()];
        if key.iter().any(Value::is_null) {
            continue;
        }
        for &pos in by_key.get(&model_key(&key)).into_iter().flatten() {
            want.push(vec![row[0].clone(), Value::Int(pos)]);
        }
    }
    assert!(want.len() > T_ROWS, "the join fans out");
    let sql = "SELECT t.rid, b.pos FROM t, b WHERE t.a = b.a AND t.s = b.s";
    let got = whole.execute(sql).unwrap();
    assert_rows(&got, &want, sql);
}

// ---------------------------------------------------------------------
// Part three: budgets and deadlines
// ---------------------------------------------------------------------

/// `b (k, name, v)`, 3000 rows without a key: `k` repeats (i mod 1000),
/// every 7th is NULL; `name` is one of five strings of differing
/// length, every 11th NULL. `p (rid, k, name)` probes it.
fn load_budget_tables(db: &mut Database) {
    db.execute(
        "CREATE TABLE b (k BIGINT, name VARCHAR, v DOUBLE);
         CREATE TABLE p (rid BIGINT PRIMARY KEY, k BIGINT, name VARCHAR)",
    )
    .unwrap();
    let names = ["", "a", "bcd", "efghij", "klmnopqrstu"];
    let b = (0..3000usize).map(|i| {
        vec![
            if i % 7 == 3 {
                Value::Null
            } else {
                Value::Int((i % 1000) as i64)
            },
            if i % 11 == 5 {
                Value::Null
            } else {
                Value::str(names[i % 5])
            },
            Value::Double(if i == 2100 { -1.0 } else { 1.0 + i as f64 }),
        ]
    });
    db.bulk_insert("b", b).unwrap();
    let p = (0..50usize).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int(i as i64),
            Value::str(names[i % 5]),
        ]
    });
    db.bulk_insert("p", p).unwrap();
}

/// What the parent build (`HashMap<Row, _>` under both operators) did
/// with a statement under a budget.
enum Recorded {
    /// `ResourceExhausted` in this context with this many bytes in use:
    /// what was charged before the failing row, plus that row.
    Exhausted(&'static str, u64),
    /// The build key's `ln` refused row 2100 first.
    LnRefuses,
    /// It ran, and the statement's `peak_mem_bytes` was this.
    Peak(u64),
}

#[test]
fn an_over_budget_join_build_or_group_table_fails_where_and_as_the_parent_build_did() {
    use Recorded::{Exhausted, LnRefuses, Peak};
    let join_k = "SELECT COUNT(*) FROM p, b WHERE p.k = b.k";
    let join_k_name = "SELECT COUNT(*) FROM p, b WHERE p.k = b.k AND p.name = b.name";
    let join_ln = "SELECT COUNT(*) FROM p, b WHERE p.k = b.k AND p.rid = ln(b.v)";
    let group_k_name = "SELECT k, name, COUNT(*), SUM(v) FROM b GROUP BY k, name";
    let group_none = "SELECT COUNT(*), SUM(v), MIN(v) FROM b";
    let join_group = "SELECT b.k, COUNT(*) FROM p, b WHERE p.k = b.k GROUP BY b.k";
    const UNLIMITED: u64 = 10_000_000;
    let cases: [(&str, u64, Recorded); 15] = [
        // One BIGINT key: 56 bytes a new key, 16 a repeat; a NULL key is
        // not charged. Among the new keys …
        (join_k, 30_000, Exhausted("join build", 30_016)),
        // … and past the last of them, among the repeats.
        (join_k, 60_000, Exhausted("join build", 60_008)),
        (join_k, UNLIMITED, Peak(81_208)),
        // A string is charged by its length, once per distinct key.
        (join_k_name, 50_000, Exhausted("join build", 50_064)),
        (join_k_name, 97_000, Exhausted("join build", 97_013)),
        (join_k_name, UNLIMITED, Peak(97_664)),
        // The budget's row comes before the row `ln` refuses, or after
        // it: then the expression speaks first.
        (join_ln, 100_000, Exhausted("join build", 100_008)),
        (join_ln, 150_000, LnRefuses),
        // The group table is charged whole, after the scan.
        (group_k_name, 100_000, Exhausted("group table", 172_861)),
        (group_k_name, UNLIMITED, Peak(172_861)),
        (group_none, 100, Exhausted("group table", 136)),
        (group_none, UNLIMITED, Peak(136)),
        // Both in one statement: the build, then the groups on top.
        (join_group, 69_000, Exhausted("join build", 69_008)),
        (join_group, 82_000, Exhausted("group table", 85_536)),
        (join_group, UNLIMITED, Peak(85_536)),
    ];
    let mut db = Database::new();
    load_budget_tables(&mut db);
    db.enable_metrics();
    for (sql, budget, recorded) in &cases {
        db.set_memory_budget(Some(MemoryBudget::new(*budget)));
        let outcome = db.execute(sql);
        let context = format!("{sql} under {budget} bytes");
        match recorded {
            Exhausted(what, used) => assert_eq!(
                outcome.unwrap_err(),
                Error::resource_exhausted(*what, *used, *budget),
                "{context}"
            ),
            LnRefuses => assert_eq!(
                outcome.unwrap_err(),
                Error::Arithmetic("ln(-1) is undefined".into()),
                "{context}"
            ),
            Peak(bytes) => {
                outcome.expect(&context);
                let metrics = db.take_metrics();
                let peak = metrics.last().expect("metrics are on").peak_mem_bytes;
                assert_eq!(peak, *bytes, "{context}");
            }
        }
    }
    // EXPLAIN counts distinct build keys, not build rows.
    db.set_memory_budget(None);
    let plan = db.execute(&format!("EXPLAIN {join_k_name}")).unwrap();
    assert_eq!(
        plan.rows[1][0],
        Value::str("hash join: b on 2 key(s) (1000 distinct build keys)")
    );
}

/// `n` distinct doubles whose hashes as a one-column key agree in their
/// top 20 bits: one probe chain in any table of up to 2^20 slots. A
/// single-cell key hashes to its number's bits times an odd constant, so
/// the wanted hashes are divided by it (Newton's iteration finds the
/// inverse mod 2^64); `hash_rows` itself then confirms the result.
fn colliding_doubles(n: usize) -> Vec<f64> {
    const MIX: u64 = 0x517c_c1b7_2722_0a95;
    let mut inverse = MIX;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(MIX.wrapping_mul(inverse)));
    }
    assert_eq!(MIX.wrapping_mul(inverse), 1);
    let keys: Vec<f64> = (1u64..)
        .map(|j| f64::from_bits(((0xabcde << 44) | j).wrapping_mul(inverse)))
        .filter(|x| x.is_finite() && *x != 0.0)
        .take(n)
        .collect();
    let hashes = hash_rows(&[Column::F64(keys.clone(), None)], 0..n);
    assert!(
        hashes.iter().all(|h| h >> 44 == 0xabcde),
        "the engine's hash is no longer what these keys were made for"
    );
    keys
}

#[test]
fn a_group_by_over_one_long_probe_chain_still_honours_the_deadline() {
    // 16 batches; every lookup walks the keys entered before it.
    let keys = colliding_doubles(16 * 1024);
    let mut db = Database::new();
    db.execute("CREATE TABLE c (x DOUBLE)").unwrap();
    db.bulk_insert("c", keys.iter().map(|&x| vec![Value::Double(x)]))
        .unwrap();
    let sql = "SELECT x, COUNT(*) FROM c GROUP BY x";
    let started = Instant::now();
    assert_eq!(db.execute(sql).unwrap().rows.len(), keys.len());
    let unbounded = started.elapsed();
    // The walk is quadratic: an eighth of the time is over in the sixth
    // batch, and the check before the seventh sees it.
    let budget = unbounded / 8;
    db.set_statement_deadline(Some(Instant::now() + budget));
    let started = Instant::now();
    let err = db.execute(sql).unwrap_err();
    assert!(matches!(err, Error::Deadline { .. }), "{err}");
    assert!(
        started.elapsed() < unbounded.max(Duration::from_millis(50)),
        "the statement ran on past its deadline"
    );
    db.set_statement_deadline(None);
    assert_eq!(db.execute(sql).unwrap().rows.len(), keys.len());
}

// ---------------------------------------------------------------------
// Part four: NULL-free batches, compared as numbers
// ---------------------------------------------------------------------

/// The variants of a NULL-free key's columns, batch after batch.
#[derive(Debug, Clone, Copy)]
enum Shape {
    BigInt,
    Double,
    BigIntDouble,
    /// One column: BIGINT in the first batch, DOUBLE after it.
    Flips,
}

const SHAPES: [Shape; 4] = [
    Shape::BigInt,
    Shape::Double,
    Shape::BigIntDouble,
    Shape::Flips,
];

impl Shape {
    /// What the key columns of batch `b` draw their cells from.
    fn kinds(self, b: usize) -> &'static [Kind] {
        match (self, b) {
            (Shape::BigInt, _) | (Shape::Flips, 0) => &[Kind::BigInt],
            (Shape::Double, _) | (Shape::Flips, _) => &[Kind::Double],
            (Shape::BigIntDouble, _) => &[Kind::BigInt, Kind::Double],
        }
    }
}

/// Batch `b` of a shape: part one's cells but for NULL, in typed columns
/// without a validity mask.
fn typed_batch(
    rng: &mut StdRng,
    shape: Shape,
    b: usize,
    rows: usize,
    spread: usize,
    hashing: Hashing,
) -> KeyBatch {
    let kinds = shape.kinds(b);
    let cell = |rng: &mut StdRng, kind: Kind| loop {
        match random_cell(rng, kind, spread) {
            Value::Null => continue,
            v => break v,
        }
    };
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| kinds.iter().map(|&k| cell(rng, k)).collect())
        .collect();
    let batch = key_batch(rows, kinds.len(), hashing);
    let typed = |c: &Column| matches!(c, Column::I64(_, None) | Column::F64(_, None));
    assert!(batch.cols.iter().all(typed));
    batch
}

/// Part one's grouping and join checks over every shape; the first
/// failure.
fn check_typed(subject: &dyn Subject) -> Result<(), String> {
    for seed in 0..12u64 {
        for shape in SHAPES {
            for hashing in HASHINGS {
                let mut rng = StdRng::seed_from_u64(0x7479_7065 + seed);
                let spread = [3, 40, 700][seed as usize % 3];
                let source =
                    |rng: &mut StdRng, b, rows| typed_batch(rng, shape, b, rows, spread, hashing);
                let context = format!("seed {seed} {shape:?} {hashing:?}");
                let arity = shape.kinds(0).len();
                group_batches(subject, &mut rng, arity, hashing, &source, &context)?;
                join_batches(subject, &mut rng, arity, &source, &context)?;
            }
        }
    }
    Ok(())
}

#[test]
fn null_free_keys_group_and_join_as_the_model_says_row_by_row_and_a_batch_at_a_time() {
    check_typed(&Engine(KeySet::new(0))).unwrap();
    check_typed(&Batched(Engine(KeySet::new(0)))).unwrap();
    // And the batch intern passes part one's mixed sequences too.
    check_all(&Batched(Engine(KeySet::new(0)))).unwrap();
}

#[test]
fn the_checks_reject_a_typed_compare_with_nan_unequal_or_signed_zeros_unequal() {
    let with = |double_eq: fn(f64, f64) -> bool| Composed {
        double_eq: Some(double_eq),
        ..Composed::default()
    };
    check_typed(&with(|x, y| x == y || (x.is_nan() && y.is_nan())))
        .expect("the compare without a fault passes");
    let nan = check_typed(&with(|x, y| x == y)).unwrap_err();
    assert!(nan.contains("group ids differ"), "{nan}");
    let zero = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    let signed = check_typed(&with(zero)).unwrap_err();
    assert!(signed.contains("group ids differ"), "{signed}");
}

/// A primary-keyed table of a shape's first-batch types, filled and
/// probed batch by batch; the first disagreement with the model.
fn check_table(seed: u64, shape: Shape) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(0x7461_626c + seed);
    let spread = [3, 40, 700][seed as usize % 3];
    let kinds = shape.kinds(0);
    let names = ["k0", "k1"];
    let defs = kinds.iter().zip(names).map(|(kind, name)| match kind {
        Kind::BigInt => schema::Column::new(name, DataType::BigInt),
        _ => schema::Column::new(name, DataType::Double),
    });
    let schema = Schema::new(defs.collect(), &names[..kinds.len()]).unwrap();
    let mut table = Table::new("t", schema);
    let mut model: BTreeMap<Vec<KeyCell>, u32> = BTreeMap::new();
    let context = format!("seed {seed} {shape:?}");
    let columns = |rows: &[&Vec<Value>]| -> Vec<Column> {
        let column = |c: usize| Column::from_values(rows.iter().map(|r| r[c].clone()).collect());
        (0..kinds.len()).map(column).collect()
    };
    for b in 0..30 {
        let rows = rng.random_range(1..200usize);
        let batch = typed_batch(&mut rng, shape, 0, rows, spread, Hashing::Engine);
        // The rows whose key is new, once each, enter; a row whose key
        // the table holds, or a new key twice, is refused whole.
        let mut fresh: BTreeMap<Vec<KeyCell>, usize> = BTreeMap::new();
        let mut held = Vec::new();
        for (i, key) in batch.rows.iter().enumerate() {
            if model.contains_key(&model_key(key)) {
                held.push(key);
            } else {
                fresh.entry(model_key(key)).or_insert(i);
            }
        }
        let mut fresh: Vec<usize> = fresh.into_values().collect();
        fresh.sort();
        let fresh: Vec<&Vec<Value>> = fresh.iter().map(|&i| &batch.rows[i]).collect();
        let before = table.len();
        let repeated = [fresh.clone(), fresh.clone()].concat();
        for refused in [&held[..], &repeated[..]] {
            if refused.is_empty() {
                continue;
            }
            let outcome = table.append(columns(refused));
            if !matches!(outcome, Err(Error::DuplicateKey { .. })) || table.len() != before {
                return Err(format!(
                    "{context} batch {b}: a repeated key is not refused"
                ));
            }
        }
        if !fresh.is_empty() {
            table
                .append(columns(&fresh))
                .map_err(|e| format!("{context} batch {b}: new keys refused: {e}"))?;
        }
        for (i, key) in fresh.iter().enumerate() {
            model.insert(model_key(key), (before + i) as u32);
        }
        // Probe with the shape's later batches: for `Flips`, doubles
        // against the stored BIGINTs.
        let probe = typed_batch(&mut rng, shape, 1, 100, spread, Hashing::Engine);
        let hits = table.probe(&probe.cols, probe.rows.len());
        for (i, key) in probe.rows.iter().enumerate() {
            let want = model.get(&model_key(key)).copied().unwrap_or(NO_ROW);
            if hits[i] != want {
                return Err(format!(
                    "{context} batch {b}: probe row {i} ({key:?}) finds {}, the model says {want}",
                    hits[i]
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn a_primary_key_index_over_null_free_keys_enters_and_probes_as_the_model_says() {
    for seed in 0..6 {
        for shape in SHAPES {
            check_table(seed, shape).unwrap();
        }
    }
}
