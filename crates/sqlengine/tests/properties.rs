//! Seeded properties: the engine against brute-force reference
//! implementations on random data. Cases draw from the in-repo `prng`,
//! so a failure reproduces from its case number.

use prng::{Rng, StdRng};
use sqlengine::{Database, Value};

/// Cases per property.
const CASES: u64 = 64;

/// `(a, b, x)` rows: `a` a sequential primary key, `b` in `0..5`, `x` in
/// `[-100, 100)` — small enough to keep FP-associativity noise out of
/// the sums.
fn small_rows(rng: &mut StdRng) -> Vec<(i64, i64, f64)> {
    (0..rng.random_range(1..120))
        .map(|a| {
            let b = rng.random_range(0..5) as i64;
            (a as i64, b, small_double(rng))
        })
        .collect()
}

/// A double in `[-100, 100)`.
fn small_double(rng: &mut StdRng) -> f64 {
    rng.random::<f64>() * 200.0 - 100.0
}

/// Run `property` on `CASES` seeded cases, each with its own generator.
fn check(seed: u64, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        property(case, &mut StdRng::seed_from_u64(seed * 1000 + case));
    }
}

fn insert(db: &mut Database, table: &str, rows: &[(i64, i64, f64)]) {
    let values =
        |(a, b, x): &(i64, i64, f64)| vec![Value::Int(*a), Value::Int(*b), Value::Double(*x)];
    db.bulk_insert(table, rows.iter().map(values)).unwrap();
}

fn load(db: &mut Database, rows: &[(i64, i64, f64)]) {
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b BIGINT, x DOUBLE)")
        .unwrap();
    insert(db, "t", rows);
}

fn loaded(rows: &[(i64, i64, f64)]) -> Database {
    let mut db = Database::new();
    load(&mut db, rows);
    db
}

/// COUNT/SUM/MIN/MAX against direct computation.
#[test]
fn aggregates_match_reference() {
    check(1, |case, rng| {
        let rows = small_rows(rng);
        let r = loaded(&rows)
            .execute("SELECT count(*), sum(x), min(x), max(x) FROM t")
            .unwrap();
        assert_eq!(
            r.rows[0][0].as_i64(),
            Some(rows.len() as i64),
            "case {case}"
        );
        let xs = || rows.iter().map(|r| r.2);
        let sum: f64 = xs().sum();
        assert!(
            (r.rows[0][1].as_f64().unwrap() - sum).abs() < 1e-6,
            "case {case}"
        );
        assert_eq!(
            r.rows[0][2].as_f64(),
            Some(xs().fold(f64::INFINITY, f64::min))
        );
        assert_eq!(
            r.rows[0][3].as_f64(),
            Some(xs().fold(f64::NEG_INFINITY, f64::max))
        );
    });
}

/// GROUP BY sums equal a map-based reference.
#[test]
fn group_by_matches_reference() {
    check(2, |case, rng| {
        let rows = small_rows(rng);
        let r = loaded(&rows)
            .execute("SELECT b, sum(x), count(*) FROM t GROUP BY b ORDER BY b")
            .unwrap();
        let mut expect: std::collections::BTreeMap<i64, (f64, i64)> = Default::default();
        for (_, b, x) in &rows {
            let e = expect.entry(*b).or_insert((0.0, 0));
            e.0 += x;
            e.1 += 1;
        }
        assert_eq!(r.rows.len(), expect.len(), "case {case}");
        for (row, (b, (sum, count))) in r.rows.iter().zip(expect) {
            assert_eq!(row[0].as_i64(), Some(b), "case {case}");
            assert!((row[1].as_f64().unwrap() - sum).abs() < 1e-6, "case {case}");
            assert_eq!(row[2].as_i64(), Some(count), "case {case}");
        }
    });
}

/// Hash equi-join against a nested-loop reference.
#[test]
fn join_matches_nested_loop() {
    check(3, |case, rng| {
        let (left, right) = (small_rows(rng), small_rows(rng));
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE l (a BIGINT PRIMARY KEY, b BIGINT, x DOUBLE);
             CREATE TABLE r (a BIGINT PRIMARY KEY, b BIGINT, x DOUBLE)",
        )
        .unwrap();
        insert(&mut db, "l", &left);
        insert(&mut db, "r", &right);
        let got = db
            .execute("SELECT l.a, r.a FROM l, r WHERE l.b = r.b ORDER BY l.a, r.a")
            .unwrap();
        let mut expect: Vec<(i64, i64)> = Vec::new();
        for (la, lb, _) in &left {
            for (ra, rb, _) in &right {
                if lb == rb {
                    expect.push((*la, *ra));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got.rows.len(), expect.len(), "case {case}");
        for (row, (la, ra)) in got.rows.iter().zip(expect) {
            assert_eq!((row[0].as_i64(), row[1].as_i64()), (Some(la), Some(ra)));
        }
    });
}

/// WHERE filtering equals `filter`.
#[test]
fn where_matches_filter() {
    check(4, |case, rng| {
        let (rows, threshold) = (small_rows(rng), small_double(rng));
        let sql = format!("SELECT a FROM t WHERE x > {threshold} ORDER BY a");
        let got = loaded(&rows).execute(&sql).unwrap();
        let expect: Vec<i64> = rows
            .iter()
            .filter(|(_, _, x)| *x > threshold)
            .map(|(a, _, _)| *a)
            .collect();
        let got: Vec<i64> = got.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, expect, "case {case}: {sql}");
    });
}

/// ORDER BY DESC sorts; LIMIT truncates.
#[test]
fn order_and_limit() {
    check(5, |case, rng| {
        let (rows, limit) = (small_rows(rng), rng.random_range(0..20));
        let sql = format!("SELECT x FROM t ORDER BY x DESC LIMIT {limit}");
        let got = loaded(&rows).execute(&sql).unwrap();
        let mut expect: Vec<f64> = rows.iter().map(|r| r.2).collect();
        expect.sort_by(|a, b| b.total_cmp(a));
        expect.truncate(limit);
        let got: Vec<f64> = got.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        assert_eq!(got, expect, "case {case}: {sql}");
    });
}

/// DELETE + COUNT stays consistent.
#[test]
fn delete_then_count() {
    check(6, |case, rng| {
        let (rows, threshold) = (small_rows(rng), small_double(rng));
        let mut db = loaded(&rows);
        let deleted = db
            .execute(&format!("DELETE FROM t WHERE x <= {threshold}"))
            .unwrap()
            .rows_affected;
        let remaining = db.execute("SELECT count(*) FROM t").unwrap().rows[0][0]
            .as_i64()
            .unwrap() as usize;
        assert_eq!(deleted + remaining, rows.len(), "case {case}");
        // All the survivors satisfy the predicate's complement.
        let min = db.execute("SELECT min(x) FROM t").unwrap().rows[0][0].clone();
        match remaining {
            0 => assert!(min.is_null(), "case {case}"),
            _ => assert!(min.as_f64().unwrap() > threshold, "case {case}"),
        }
    });
}

/// UPDATE applies the assignment to exactly the matching rows.
#[test]
fn update_applies_expression() {
    check(7, |case, rng| {
        let rows = small_rows(rng);
        let mut db = loaded(&rows);
        db.execute("UPDATE t SET x = x * 2 WHERE b = 1").unwrap();
        let got = db.execute("SELECT a, x FROM t ORDER BY a").unwrap();
        assert_eq!(got.rows.len(), rows.len(), "case {case}");
        for (row, (_, b, x)) in got.rows.iter().zip(&rows) {
            let expect = if *b == 1 { x * 2.0 } else { *x };
            assert!(
                (row[1].as_f64().unwrap() - expect).abs() < 1e-9,
                "case {case}"
            );
        }
    });
}

/// Two shards' group tables, merged and finalized where no row lives,
/// agree bit for bit with one table holding every row: the merge a
/// shard coordinator runs.
#[test]
fn two_shards_agree_with_one_table() {
    check(8, |case, rng| {
        let rows = small_rows(rng);
        let sql = "SELECT b, sum(x), count(*) FROM t GROUP BY b ORDER BY b";
        let whole = loaded(&rows).execute(sql).unwrap();
        let (left, right) = rows.split_at(rng.random_range(0..rows.len() + 1));
        let mut merged = loaded(left).execute_partial(sql).unwrap();
        merged
            .merge(&loaded(right).execute_partial(sql).unwrap())
            .unwrap();
        let sharded = loaded(&[]).finalize_partials(sql, &merged).unwrap();
        assert_eq!(whole.rows, sharded.rows, "case {case}");
    });
}
