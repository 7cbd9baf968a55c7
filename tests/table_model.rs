//! `sqlengine::table::Table` — typed columns under a positions-only key
//! index — against the obvious model: a `Vec` of rows and a `BTreeMap`
//! from key to position.
//!
//! Part one drives seeded random sequences of the table's mutations —
//! appends (one row, a column batch, a batch with a duplicate in the
//! middle), `delete` of chosen positions (all of them too) and `update`
//! of them (off the key, on it without and with a collision, of no rows)
//! — over schemas with
//! no key, one BIGINT key, the three-BIGINT key of the vertical
//! strategy's YC, and a VARCHAR + DOUBLE key, with NULLs, NaNs, signed
//! zeros and integers past 2^53 in key and non-key cells. After every
//! step every row reads back bit for bit, every key probes to its
//! position (as the BIGINTs they are and as the doubles they equal),
//! keys the model does not hold probe to nothing, and a refused
//! mutation has left all of that as it was.
//!
//! Part two holds a failing `INSERT … SELECT` to the error row-at-a-time
//! staging raised — its kind, its message, the first failing row — and
//! to leaving the target, its index and a durable database's log as a
//! statement that never ran leaves them (the log gains the frame every
//! attempted statement writes, uncommitted).
//!
//! Part three drives seeded random SQL through a [`Database`] whose
//! table is dropped and re-created again and again — with its schema,
//! which hands the new table the dropped one's storage, and with the
//! other one (keyed or not) — and filled by `INSERT … SELECT` from a
//! source of the same special cells, from itself (keys shifted, or not
//! and so repeated), through a coercion that fails part way, and thinned
//! by DELETE: after every statement the table is the model's, as in
//! part one.

use std::collections::BTreeMap;

use prng::{Rng, StdRng};
use sqlengine::expr::Column;
use sqlengine::resource::MemoryBudget;
use sqlengine::schema::{self, Schema};
use sqlengine::table::{Table, NO_ROW};
use sqlengine::{DataType, Database, Error, Value};

mod common;
use common::keys::{key_cell, same_value, KeyCell};

// ---------------------------------------------------------------------
// Part one: the table against its model
// ---------------------------------------------------------------------

struct Model {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Model {
    fn key_of(&self, row: &[Value]) -> Vec<KeyCell> {
        let key = self.schema.primary_key().iter();
        key.map(|&c| key_cell(&row[c])).collect()
    }

    /// Key → position, or `None` if two rows share a key.
    fn index(rows: &[Vec<Value>], key_of: impl Fn(&[Value]) -> Vec<KeyCell>) -> Option<Keys> {
        let mut keys = BTreeMap::new();
        for (pos, row) in rows.iter().enumerate() {
            if keys.insert(key_of(row), pos).is_some() {
                return None;
            }
        }
        Some(keys)
    }

    fn keyed(&self) -> bool {
        self.schema.has_primary_key()
    }

    /// Would `rows` be a table state? (Keys unique, where there is a key.)
    fn admits(&self, rows: &[Vec<Value>]) -> bool {
        !self.keyed() || Model::index(rows, |r| self.key_of(r)).is_some()
    }
}

type Keys = BTreeMap<Vec<KeyCell>, usize>;

/// `rows` as one storage column per declared column.
fn columns(schema: &Schema, rows: &[Vec<Value>]) -> Vec<Column> {
    let column = |(c, d): (usize, &schema::Column)| {
        let cells = rows.iter().map(|r| r[c].clone()).collect();
        let (col, failed) = Column::from_values(cells).coerce(d.ty);
        assert!(failed.is_none(), "generated cells are of the declared type");
        col
    };
    schema.columns().iter().enumerate().map(column).collect()
}

/// Row `pos` of `table`, read back.
fn row(table: &Table, pos: usize) -> Vec<Value> {
    table.columns().iter().map(|c| c.value(pos)).collect()
}

/// Probe `table` with the key cells of `keys` (rows of key-column values).
fn probe(table: &Table, arity: usize, keys: &[Vec<Value>]) -> Vec<u32> {
    let cols: Vec<Column> = (0..arity)
        .map(|c| Column::from_values(keys.iter().map(|k| k[c].clone()).collect()))
        .collect();
    table.probe(&cols, keys.len())
}

/// Everything the table can be asked, against the model.
fn check(table: &Table, model: &Model, rng: &mut StdRng, step: &str) {
    assert_eq!(table.len(), model.rows.len(), "{step}: length");
    assert_eq!(table.is_empty(), model.rows.is_empty(), "{step}");
    for (pos, want) in model.rows.iter().enumerate() {
        let got = row(table, pos);
        assert!(
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| same_value(g, w)),
            "{step}: row {pos} reads {got:?}, model holds {want:?}"
        );
    }
    let key_cols = model.schema.primary_key();
    let keys: Vec<Vec<Value>> = model
        .rows
        .iter()
        .map(|r| key_cols.iter().map(|&c| r[c].clone()).collect())
        .collect();
    if !model.keyed() {
        let hits = probe(table, 1, &[vec![Value::Int(1)], vec![Value::Null]]);
        assert_eq!(
            hits,
            [NO_ROW, NO_ROW],
            "{step}: a keyless table matches nothing"
        );
        return;
    }
    let index = Model::index(&model.rows, |r| model.key_of(r)).expect("model keys are unique");
    // Every key finds its row — unless it holds a NULL, which (SQL join
    // semantics) matches nothing though it does take part in uniqueness.
    let hits = probe(table, key_cols.len(), &keys);
    for (pos, key) in keys.iter().enumerate() {
        let want = if key.iter().any(Value::is_null) {
            NO_ROW
        } else {
            pos as u32
        };
        assert_eq!(hits[pos], want, "{step}: key {key:?} of row {pos}");
    }
    // The same keys as the doubles they equal, and half a unit off.
    let as_double = |v: &Value, off: f64| match v {
        Value::Int(i) if i.abs() < 1 << 53 => Value::Double(*i as f64 + off),
        other => other.clone(),
    };
    for off in [0.0, 0.5] {
        let shifted: Vec<Vec<Value>> = keys
            .iter()
            .map(|k| k.iter().map(|v| as_double(v, off)).collect())
            .collect();
        let hits = probe(table, key_cols.len(), &shifted);
        for (key, hit) in shifted.iter().zip(hits) {
            let cells: Vec<KeyCell> = key.iter().map(key_cell).collect();
            let want = match index.get(&cells) {
                Some(&pos) if !key.iter().any(Value::is_null) => pos as u32,
                _ => NO_ROW,
            };
            assert_eq!(hit, want, "{step}: probe {key:?}");
        }
    }
    // Keys drawn afresh: mostly absent, found exactly when the model has them.
    let declared = model.schema.columns();
    let fresh: Vec<Vec<Value>> = (0..64)
        .map(|_| {
            let cell = |&c: &usize| random_cell(rng, declared[c].ty, 1 << 20);
            key_cols.iter().map(cell).collect()
        })
        .collect();
    let hits = probe(table, key_cols.len(), &fresh);
    for (key, hit) in fresh.iter().zip(hits) {
        let cells: Vec<KeyCell> = key.iter().map(key_cell).collect();
        let want = match index.get(&cells) {
            Some(&pos) if !key.iter().any(Value::is_null) => pos as u32,
            _ => NO_ROW,
        };
        assert_eq!(hit, want, "{step}: fresh key {key:?}");
    }
}

/// A cell of declared type `ty`. `spread` sizes the domain numbers are
/// drawn from: a small one is for collisions, and NULLs and the special
/// values are common in it; among fresh keys they are rare, so that a
/// batch of them is usually allowed.
fn random_cell(rng: &mut StdRng, ty: DataType, spread: i64) -> Value {
    let odds = if spread <= 40 { 4 } else { 400 };
    let n = rng.random_range(0..spread as usize) as i64;
    let special = (rng.random_range(0..odds) == 0).then(|| rng.random_range(0..6usize));
    match (ty, special) {
        (_, Some(0)) => Value::Null,
        (DataType::BigInt, Some(1 | 2)) => Value::Int((1 << 53) + n % 3),
        (DataType::BigInt, Some(_)) => Value::Int(-n),
        (DataType::BigInt, None) => Value::Int(n),
        (DataType::Double, Some(1)) => Value::Double(f64::NAN),
        (DataType::Double, Some(2)) => Value::Double(0.0),
        (DataType::Double, Some(3)) => Value::Double(-0.0),
        (DataType::Double, Some(4)) => Value::Double(f64::from_bits(f64::NAN.to_bits() | 1)),
        (DataType::Double, Some(_)) => Value::Double(n as f64 + 0.5),
        (DataType::Double, None) => Value::Double(n as f64),
        (DataType::Varchar, Some(k)) => Value::str(["", "a", "b"][k % 3]),
        (DataType::Varchar, None) => Value::str(format!("s{n}")),
    }
}

fn random_rows(rng: &mut StdRng, schema: &Schema, n: usize, spread: i64) -> Vec<Vec<Value>> {
    let row = |rng: &mut StdRng| {
        let cell = |c: &schema::Column| random_cell(rng, c.ty, spread);
        schema.columns().iter().map(cell).collect()
    };
    (0..n).map(|_| row(rng)).collect()
}

fn schemas() -> Vec<(&'static str, Schema)> {
    let col = schema::Column::new;
    use DataType::{BigInt, Double, Varchar};
    vec![
        (
            "keyless",
            Schema::keyless(vec![col("a", BigInt), col("x", Double), col("s", Varchar)]).unwrap(),
        ),
        (
            "bigint key",
            Schema::new(vec![col("id", BigInt), col("x", Double)], &["id"]).unwrap(),
        ),
        (
            "yc",
            Schema::new(
                vec![
                    col("rid", BigInt),
                    col("i", BigInt),
                    col("v", BigInt),
                    col("sq", Double),
                ],
                &["rid", "i", "v"],
            )
            .unwrap(),
        ),
        (
            "varchar + double key",
            Schema::new(
                vec![col("n", BigInt), col("name", Varchar), col("d", Double)],
                &["name", "d"],
            )
            .unwrap(),
        ),
    ]
}

/// Append `rows` to both sides; they must agree on whether it is allowed.
fn append(table: &mut Table, model: &mut Model, rows: Vec<Vec<Value>>, step: &str) -> bool {
    let mut after = model.rows.clone();
    after.extend(rows.iter().cloned());
    let outcome = table.append(columns(&model.schema, &rows));
    if model.admits(&after) {
        assert_eq!(outcome, Ok(rows.len()), "{step}");
        model.rows = after;
        true
    } else {
        let table_name = table.name().to_string();
        assert_eq!(
            outcome,
            Err(Error::DuplicateKey { table: table_name }),
            "{step}"
        );
        false
    }
}

#[test]
fn random_mutations_keep_table_and_index_equal_to_the_model() {
    for seed in [0x7AB1E, 0xC01] {
        for (name, schema) in schemas() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::new("T", schema.clone());
            let mut model = Model {
                schema,
                rows: Vec::new(),
            };
            let (mut peak, mut refused, mut rebuilt) = (0, 0, 0);
            let key_cols = model.schema.primary_key().to_vec();
            // A non-key column to update (every schema has one).
            let free = (0..model.schema.arity())
                .find(|c| !key_cols.contains(c))
                .expect("a non-key column");
            let free_ty = model.schema.column(free).ty;
            for step in 0..240 {
                let what = format!("seed {seed:#x} {name} step {step}");
                // The table grows for 100 steps, so the index is
                // regrown at 4, 8, 16, … rows, then shrinks and regrows.
                let op = rng.random_range(0..if step < 100 { 10 } else { 16usize });
                match op {
                    0..=2 => {
                        let rows = random_rows(&mut rng, &model.schema, 1, 40);
                        refused += !append(&mut table, &mut model, rows, &what) as usize;
                    }
                    3..=6 => {
                        let n = rng.random_range(1..60usize);
                        let rows = random_rows(&mut rng, &model.schema, n, 1 << 20);
                        refused += !append(&mut table, &mut model, rows, &what) as usize;
                    }
                    7 | 8 => {
                        // A batch that repeats one of its own keys, or
                        // one the table holds, in the middle.
                        let n = rng.random_range(3..40usize);
                        let mut rows = random_rows(&mut rng, &model.schema, n, 1 << 20);
                        let twin = match model.rows.len() {
                            len if len > 0 && rng.random() => {
                                model.rows[rng.random_range(0..len)].clone()
                            }
                            _ => rows[0].clone(),
                        };
                        for &c in &key_cols {
                            rows[n / 2][c] = twin[c].clone();
                        }
                        refused += !append(&mut table, &mut model, rows, &what) as usize;
                    }
                    9 | 10 => {
                        // Off the key.
                        let to = random_cell(&mut rng, free_ty, 40);
                        let pick = rng.random_range(1..4usize);
                        let mut positions = Vec::new();
                        for (pos, row) in model.rows.iter_mut().enumerate() {
                            if (pos + 1).is_multiple_of(pick) && !same_value(&row[free], &to) {
                                row[free] = to.clone();
                                positions.push(pos as u32);
                            }
                        }
                        let values = vec![to; positions.len()];
                        let (values, _) = Column::from_values(values).coerce(free_ty);
                        let got = table.update(&positions, vec![(free, values)]);
                        assert_eq!(got, Ok(()), "{what}");
                    }
                    11 if model.keyed() => {
                        // On the key: every BIGINT key cell moves by one
                        // stride (no collision), or — half the time —
                        // the last row takes the first row's key.
                        let collide = rng.random::<bool>() && model.rows.len() > 1;
                        let stride = 1 << 21;
                        let first: Vec<Value> = model.rows.first().cloned().unwrap_or_default();
                        let last = model.rows.len().wrapping_sub(1);
                        let mut after = model.rows.clone();
                        for (pos, row) in after.iter_mut().enumerate() {
                            for &c in &key_cols {
                                if collide && pos == last {
                                    row[c] = first[c].clone();
                                } else if let Value::Int(i) = row[c] {
                                    row[c] = Value::Int(i.wrapping_add(stride));
                                }
                            }
                        }
                        let positions: Vec<u32> = (0..after.len() as u32).collect();
                        let staged = columns(&model.schema, &after);
                        let keys = key_cols.iter().map(|&c| (c, staged[c].clone()));
                        let got = table.update(&positions, keys.collect());
                        if model.admits(&after) {
                            assert_eq!(got, Ok(()), "{what}");
                            model.rows = after;
                            rebuilt += 1;
                        } else {
                            assert!(
                                matches!(got, Err(Error::DuplicateKey { .. })),
                                "{what}: {got:?}"
                            );
                            refused += 1;
                        }
                    }
                    12 => {
                        // An UPDATE of no rows changes nothing.
                        let got = table.update(&[], vec![(free, Column::empty(free_ty))]);
                        assert_eq!(got, Ok(()), "{what}");
                    }
                    13 | 14 => {
                        let pick = rng.random_range(2..5usize);
                        let doomed: Vec<u32> = (0..model.rows.len() as u32)
                            .filter(|pos| (pos + 1).is_multiple_of(pick as u32))
                            .collect();
                        for &pos in doomed.iter().rev() {
                            model.rows.remove(pos as usize);
                        }
                        assert_eq!(table.delete(&doomed), doomed.len(), "{what}");
                        rebuilt += 1;
                    }
                    15 if rng.random_range(0..4usize) == 0 => {
                        let every: Vec<u32> = (0..model.rows.len() as u32).collect();
                        assert_eq!(table.delete(&every), model.rows.len(), "{what}");
                        model.rows.clear();
                    }
                    _ => {}
                }
                peak = peak.max(model.rows.len());
                check(&table, &model, &mut rng, &what);
            }
            // The sequence has to reach what it is here to test.
            assert!(peak > 600, "{name}: peaked at {peak} rows");
            assert!(rebuilt > 8, "{name}: {rebuilt} rebuilds");
            if model.keyed() {
                assert!(refused > 10, "{name}: only {refused} refused mutations");
            }
        }
    }
}

#[test]
fn doubles_find_the_bigint_keys_they_equal_and_no_others() {
    let schema = Schema::new(
        vec![schema::Column::bigint("id"), schema::Column::double("x")],
        &["id"],
    )
    .unwrap();
    let mut table = Table::new("t", schema);
    let big = 1i64 << 53;
    let ids = [1, 2, big, big + 1, i64::MAX, i64::MIN];
    let batch = vec![
        Column::I64(ids.to_vec(), None),
        Column::F64(vec![0.0; ids.len()], None),
    ];
    assert_eq!(table.append(batch), Ok(ids.len()));
    let find = |v: Value| table.probe(&[Column::from_values(vec![v])], 1)[0];
    assert_eq!(find(Value::Double(1.0)), 0);
    assert_eq!(find(Value::Double(1.5)), NO_ROW);
    assert_eq!(find(Value::Int(big)), 2);
    assert_eq!(find(Value::Int(big + 1)), 3);
    // The double 2^53 is the integer 2^53, not its neighbour.
    assert_eq!(find(Value::Double(big as f64)), 2);
    assert_eq!(find(Value::Int(big + 2)), NO_ROW);
    // 2^63 is no BIGINT; -2^63 is.
    assert_eq!(find(Value::Double(i64::MAX as f64)), NO_ROW);
    assert_eq!(find(Value::Double(i64::MIN as f64)), 5);
    assert_eq!(find(Value::Null), NO_ROW);
    assert_eq!(find(Value::str("1")), NO_ROW);
    assert_eq!(find(Value::Double(f64::NAN)), NO_ROW);
}

// ---------------------------------------------------------------------
// Part two: a failing INSERT … SELECT
// ---------------------------------------------------------------------

/// Rows of the source table: `(rid, a, b)` with `a = b = rid` but for
/// the rows the test spoils.
const SOURCE_ROWS: usize = 3000;

/// Logical bytes of one two-column row (`resource::row_bytes`).
const ROW_BYTES: u64 = 24 + 2 * 16;

fn load_source(db: &mut Database, spoil: &[(usize, f64)]) {
    db.execute(
        "CREATE TABLE src (rid BIGINT PRIMARY KEY, a DOUBLE, b DOUBLE);
         CREATE TABLE t (k BIGINT PRIMARY KEY, v DOUBLE)",
    )
    .unwrap();
    let rows = (0..SOURCE_ROWS).map(|rid| {
        let a = spoil
            .iter()
            .find(|(at, _)| *at == rid)
            .map_or(rid as f64, |s| s.1);
        vec![
            Value::Int(rid as i64),
            Value::Double(a),
            Value::Double(rid as f64),
        ]
    });
    db.bulk_insert("src", rows).unwrap();
    db.execute("INSERT INTO t VALUES (-1, 0.5), (-2, NULL)")
        .unwrap();
}

/// The target's rows and what its index answers.
fn target_state(db: &Database) -> (Vec<Vec<Value>>, Vec<u32>) {
    let t = db.catalog().table("t").unwrap();
    let keys = Column::from_values((-3..3).map(Value::Int).collect());
    (
        (0..t.len()).map(|pos| row(t, pos)).collect(),
        t.probe(&[keys], 6),
    )
}

#[test]
fn a_failing_insert_select_fails_as_row_at_a_time_staging_did_and_changes_nothing() {
    let non_integral = |x: f64| Error::TypeMismatch {
        context: format!("cannot store non-integral {x} in BIGINT column"),
    };
    let duplicate = Error::DuplicateKey { table: "t".into() };
    let exhausted = |context: &str, rows_charged: u64, budget: u64| {
        Error::resource_exhausted(context, rows_charged * ROW_BYTES, budget)
    };
    // The SELECT's output is charged first (3000 rows), then staging.
    let in_output = 1500 * ROW_BYTES + 10;
    let in_staging = (SOURCE_ROWS as u64 + 1100) * ROW_BYTES + 10;
    // (name, rows of `src` to spoil, memory budget, the error to expect)
    type Case = (&'static str, Vec<(usize, f64)>, Option<u64>, Error);
    let cases: Vec<Case> = vec![
        // The first of two rows that do not coerce, in different batches.
        (
            "coerce",
            vec![(1030, 7.5), (2500, 8.5)],
            None,
            non_integral(7.5),
        ),
        (
            "coerce first row",
            vec![(0, 0.25)],
            None,
            non_integral(0.25),
        ),
        // A key the statement itself inserted earlier; one the table held.
        ("duplicate", vec![(2047, 5.0)], None, duplicate.clone()),
        (
            "duplicate of stored",
            vec![(1024, -1.0)],
            None,
            duplicate.clone(),
        ),
        // Staging precedes the key check: a row that does not coerce
        // speaks before an earlier duplicate.
        (
            "coerce before duplicate",
            vec![(700, 0.5), (600, 5.0)],
            None,
            non_integral(0.5),
        ),
        // Over budget while the SELECT buffers its output, at row 1500 …
        (
            "budget: output",
            vec![],
            Some(in_output),
            exhausted("select output", 1501, in_output),
        ),
        // … and while the INSERT stages, at staged row 1100: before the
        // row that does not coerce, which therefore never speaks — but
        // a row is coerced before it is charged.
        (
            "budget: staging",
            vec![(1101, 0.5)],
            Some(in_staging),
            exhausted("staged insert", SOURCE_ROWS as u64 + 1101, in_staging),
        ),
        (
            "coerce at the budget's row",
            vec![(1100, 0.5)],
            Some(in_staging),
            non_integral(0.5),
        ),
    ];
    let insert = "INSERT INTO t SELECT a, b FROM src";
    for (what, spoil, budget, want) in cases {
        for durable in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "sqlem_table_model_{}_{}",
                std::process::id(),
                what.replace([' ', ':'], "_")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = match durable {
                true => Database::open_durable(&dir).unwrap(),
                false => Database::new(),
            };
            load_source(&mut db, &spoil);
            let before = target_state(&db);
            let wal_before = durable.then(|| std::fs::read(dir.join("wal.log")).unwrap());

            db.set_memory_budget(budget.map(MemoryBudget::new));
            let err = db.execute(insert).unwrap_err();
            assert_eq!(err, want, "{what}");
            db.set_memory_budget(None);

            let after = target_state(&db);
            assert_eq!(after.1, before.1, "{what}: index");
            assert_eq!(
                after.1,
                [NO_ROW, 1, 0, NO_ROW, NO_ROW, NO_ROW],
                "{what}: index"
            );
            assert_eq!(after.0.len(), 2, "{what}");
            for (got, want) in after.0.iter().zip(&before.0) {
                assert!(
                    got.iter().zip(want).all(|(g, w)| same_value(g, w)),
                    "{what}"
                );
            }
            if let Some(wal_before) = wal_before {
                // The log holds what it held, then the frame the failed
                // attempt opened and never committed: replay skips it.
                let wal_after = std::fs::read(dir.join("wal.log")).unwrap();
                assert!(wal_after.starts_with(&wal_before), "{what}: log rewritten");
                let (old, new) = (
                    sqlengine::wal::scan(&wal_before).unwrap(),
                    sqlengine::wal::scan(&wal_after).unwrap(),
                );
                assert_eq!(new.committed, old.committed, "{what}");
                assert_eq!(new.uncommitted, [old.next_seq], "{what}");
                drop(db);
                let reopened = Database::open_durable(&dir).unwrap();
                assert_eq!(target_state(&reopened).1, before.1, "{what}: reopened");
                assert_eq!(reopened.table_len("t"), Ok(2), "{what}: reopened");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
    // Unspoiled, the same statement goes through and every key is found.
    let mut db = Database::new();
    load_source(&mut db, &[]);
    assert_eq!(db.execute(insert).unwrap().rows_affected, SOURCE_ROWS);
    let t = db.catalog().table("t").unwrap();
    let keys = Column::F64((0..SOURCE_ROWS).map(|k| k as f64).collect(), None);
    let hits = t.probe(&[keys], SOURCE_ROWS);
    assert!(hits.iter().zip(2..).all(|(hit, pos)| *hit == pos));
}

// ---------------------------------------------------------------------
// Part three: drop and re-create, through SQL
// ---------------------------------------------------------------------

const KEYED: &str = "CREATE TABLE t (id BIGINT PRIMARY KEY, x DOUBLE)";
const KEYLESS: &str = "CREATE TABLE t (id BIGINT, x DOUBLE)";

/// Run `sql`, an `INSERT` into `t` that the model says appends `rows`
/// (or fails with that error before it gets to), and check both agree;
/// whether it failed on a duplicate key.
fn insert_as_modelled(
    db: &mut Database,
    model: &mut Model,
    sql: &str,
    rows: Result<Vec<Vec<Value>>, Error>,
    step: &str,
) -> bool {
    let rows = rows.and_then(|rows| {
        let mut after = model.rows.clone();
        after.extend(rows);
        match model.admits(&after) {
            true => Ok(after),
            false => Err(Error::DuplicateKey { table: "t".into() }),
        }
    });
    match (db.execute(sql), rows) {
        (Ok(_), Ok(after)) => model.rows = after,
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{step}: {sql}");
            return matches!(got, Error::DuplicateKey { .. });
        }
        (got, want) => panic!("{step}: {sql} gave {got:?}, the model {want:?}"),
    }
    false
}

#[test]
fn drop_and_recreate_cycles_keep_table_and_index_equal_to_the_model() {
    for seed in [0xD20B, 0x5EED] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        db.execute("CREATE TABLE src (id BIGINT, x DOUBLE)")
            .unwrap();
        db.execute(KEYED).unwrap();
        let table = |db: &Database| db.catalog().table("t").unwrap().schema().clone();
        let mut model = Model {
            schema: table(&db),
            rows: Vec::new(),
        };
        let mut source: Vec<Vec<Value>> = Vec::new();
        let (mut recreated, mut duplicates) = (0, 0);
        for step in 0..160 {
            let what = format!("seed {seed:#x} step {step}");
            match rng.random_range(0..10usize) {
                0 | 1 => {
                    let keyed = rng.random_range(0..4usize) > 0;
                    let create = if keyed { KEYED } else { KEYLESS };
                    db.execute("DROP TABLE t").unwrap();
                    db.execute(create).unwrap();
                    model = Model {
                        schema: table(&db),
                        rows: Vec::new(),
                    };
                    recreated += 1;
                }
                2 => {
                    // A new source: its `x` rich in NULLs and special
                    // doubles, its keys drawn from a small domain (so
                    // they collide) or distinct.
                    let n = rng.random_range(0..1500usize);
                    let colliding = rng.random_range(0..3usize) == 0;
                    let base = rng.random_range(0..1 << 20) as i64;
                    let row = |(i, rng): (i64, &mut StdRng)| {
                        let id = match colliding {
                            true => random_cell(rng, DataType::BigInt, 40),
                            false => Value::Int(base + i),
                        };
                        vec![id, random_cell(rng, DataType::Double, 40)]
                    };
                    source = (0..n as i64).map(|i| row((i, &mut rng))).collect();
                    db.execute("DROP TABLE IF EXISTS src").unwrap();
                    db.execute("CREATE TABLE src (id BIGINT, x DOUBLE)")
                        .unwrap();
                    db.bulk_insert("src", source.clone()).unwrap();
                }
                3..=5 => {
                    // The source's rows from one of its keys on, so the
                    // NULLs of `x` fall elsewhere each time.
                    let cut = match source.len() {
                        0 => 0,
                        n => match source[rng.random_range(0..n)][0] {
                            Value::Int(i) => i,
                            _ => -(1 << 60),
                        },
                    };
                    let kept = |r: &&Vec<Value>| matches!(r[0], Value::Int(i) if i >= cut);
                    let rows = Ok(source.iter().filter(kept).cloned().collect());
                    let sql = format!("INSERT INTO t SELECT id, x FROM src WHERE id >= {cut}");
                    duplicates +=
                        insert_as_modelled(&mut db, &mut model, &sql, rows, &what) as usize;
                }
                6 | 7 => {
                    // From itself: keys shifted clear of the ones held,
                    // or not shifted, and so each repeated.
                    let off = [0, 1 << 24][rng.random_range(0..2usize)];
                    let shift = |v: &Value| match v {
                        Value::Int(i) => Value::Int(i + off),
                        other => other.clone(),
                    };
                    let rows = model.rows.iter().map(|r| vec![shift(&r[0]), r[1].clone()]);
                    let rows = Ok(rows.collect());
                    let sql = format!("INSERT INTO t SELECT id + {off}, x FROM t");
                    duplicates +=
                        insert_as_modelled(&mut db, &mut model, &sql, rows, &what) as usize;
                }
                8 => {
                    // `x + 0.5` is whole only where `x` was a half: the
                    // first row where it is not fails the statement.
                    let key = |x: &Value| match x {
                        Value::Double(d) => Value::Double(d + 0.5).coerce_to(DataType::BigInt),
                        other => Ok(other.clone()),
                    };
                    let rows = source.iter().map(|r| Ok(vec![key(&r[1])?, r[1].clone()]));
                    let sql = "INSERT INTO t SELECT x + 0.5, x FROM src";
                    let rows = rows.collect();
                    duplicates +=
                        insert_as_modelled(&mut db, &mut model, sql, rows, &what) as usize;
                }
                _ => {
                    // Below the key of a row the table holds, if any.
                    let cut = match model.rows.len() {
                        0 => 0,
                        n => match model.rows[rng.random_range(0..n)][0] {
                            Value::Int(i) => i,
                            _ => 20,
                        },
                    };
                    db.execute(&format!("DELETE FROM t WHERE id < {cut}"))
                        .unwrap();
                    let doomed = |r: &Vec<Value>| matches!(r[0], Value::Int(i) if i < cut);
                    model.rows.retain(|r| !doomed(r));
                }
            }
            check(db.catalog().table("t").unwrap(), &model, &mut rng, &what);
        }
        assert!(
            recreated >= 20 && duplicates >= 10,
            "{recreated} {duplicates}"
        );
    }
}
