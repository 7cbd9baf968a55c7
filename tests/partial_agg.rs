//! Single-node execution is the one-shard case of partial + finalize:
//! for seeded random tables and a fixed set of aggregate shapes, split
//! the rows 1–4 ways, run `execute_partial` on each part, carry every
//! partial through the wire encoding, merge, `finalize_partials` on a
//! rowless catalog — and require the rows a single `execute` over the
//! whole table returns, bit for bit.
//!
//! The summed column is hostile on purpose: NaN, ±∞, subnormals, wide
//! exponents, responsibilities from 1 down to 1e-310 (between them they
//! take several hundred of the sums past the inline expansion, so the
//! wide accumulator's transport form crosses the wire too) and `±1e308`
//! pairs whose running sum hovers beyond the f64 range — and `MIN`/`MAX`
//! read it too: a NaN has one fixed place in
//! their order (above every number), so the survivor does not depend on
//! where the parts were cut. Every shape is held bit-exact at every
//! split: each aggregate the engine has merges exactly, in any order.

use prng::{Rng, StdRng};
use sqlengine::{Database, PartialAggResult, QueryResult, Value};
use sqlwire::Response;

const DDL: &str = "CREATE TABLE t (rid BIGINT PRIMARY KEY, g BIGINT, x DOUBLE, n BIGINT, v DOUBLE)";

/// Aggregate shapes: every cell must match bit for bit.
const SHAPES: &[&str] = &[
    "SELECT SUM(x), AVG(x), COUNT(*), COUNT(x), SUM(n), MIN(n), MAX(v), MIN(x), MAX(x) FROM t",
    "SELECT g, SUM(x), AVG(x), COUNT(*), MIN(v), MAX(n), MIN(x), MAX(x) FROM t GROUP BY g",
    "SELECT g, SUM(n) AS s FROM t GROUP BY g HAVING COUNT(*) > 2",
    "SELECT g, SUM(x) AS sx, COUNT(x) AS c FROM t GROUP BY g ORDER BY g DESC LIMIT 2",
    "SELECT g FROM t GROUP BY g ORDER BY SUM(n) DESC, g LIMIT 3",
    "SELECT g + 1 AS h, AVG(x) / COUNT(*) FROM t WHERE n > 0 GROUP BY g + 1",
];

fn wild_double(rng: &mut StdRng) -> Value {
    let unit: f64 = rng.random();
    Value::Double(match rng.random_range(0..14usize) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::from_bits(rng.next_u64() % (1 << 52)), // subnormal
        4 => 1.0e308,
        5 => -1.0e308,
        6 => f64::MAX,
        7 => -0.0,
        // A responsibility: 1 down to 1e-310, gradual underflow included.
        8 | 9 => {
            let (a, b) = (rng.random_range(0..156usize), rng.random_range(0..156usize));
            unit * 10f64.powi(-(a as i32)) * 10f64.powi(-(b as i32))
        }
        _ => {
            let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
            sign * unit * 2f64.powi(rng.random_range(0..600usize) as i32 - 300)
        }
    })
}

fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|rid| {
            let nullable = |rng: &mut StdRng, v: Value| {
                if rng.random_range(0..8usize) == 0 {
                    Value::Null
                } else {
                    v
                }
            };
            let g = Value::Int(rng.random_range(0..4usize) as i64);
            let x = wild_double(rng);
            let small = Value::Int(rng.random_range(0..7usize) as i64 - 2);
            let tame = Value::Double(rng.random::<f64>() * 20.0 - 10.0);
            vec![
                Value::Int(rid as i64),
                nullable(rng, g),
                nullable(rng, x),
                nullable(rng, small),
                nullable(rng, tame),
            ]
        })
        .collect()
}

fn database_with(rows: &[Vec<Value>]) -> Database {
    let mut db = Database::new();
    db.execute(DDL).unwrap();
    db.bulk_insert("t", rows.to_vec()).unwrap();
    db
}

/// Contiguous parts (some possibly empty), so that first-seen group
/// order over the concatenation is the single-node order.
fn split<'a>(rng: &mut StdRng, rows: &'a [Vec<Value>], parts: usize) -> Vec<&'a [Vec<Value>]> {
    let mut cuts: Vec<usize> = (1..parts)
        .map(|_| rng.random_range(0..=rows.len()))
        .collect();
    cuts.push(0);
    cuts.push(rows.len());
    cuts.sort_unstable();
    cuts.windows(2).map(|w| &rows[w[0]..w[1]]).collect()
}

/// What a shard's partial looks like after crossing the wire.
fn over_the_wire(partial: PartialAggResult) -> PartialAggResult {
    match Response::decode(&Response::Partial(partial).encode()).unwrap() {
        Response::Partial(p) => p,
        other => panic!("expected Partial, got {other:?}"),
    }
}

fn scatter_gather(shards: &mut [Database], shadow: &mut Database, sql: &str) -> QueryResult {
    let mut merged: Option<PartialAggResult> = None;
    for shard in shards {
        let partial = over_the_wire(shard.execute_partial(sql).unwrap());
        match &mut merged {
            None => merged = Some(partial),
            Some(m) => m.merge(&partial).unwrap(),
        }
    }
    shadow
        .finalize_partials(sql, &merged.expect("at least one shard"))
        .unwrap()
}

/// Cells with doubles by bit pattern (NaN equals NaN, -0.0 is not 0.0).
fn bits(result: &QueryResult) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Double(d) => format!("double:{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    result
        .rows
        .iter()
        .map(|r| r.iter().map(cell).collect())
        .collect()
}

#[test]
fn partial_plus_finalize_equals_single_node_bit_for_bit() {
    let mut shadow = Database::new();
    shadow.execute(DDL).unwrap();
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
        // Seeds 0 and 1 are the empty table.
        let n_rows = if seed < 2 {
            0
        } else {
            rng.random_range(1..=40usize)
        };
        let rows = random_rows(&mut rng, n_rows);
        let mut full = database_with(&rows);
        for parts in 1..=4 {
            let mut shards: Vec<Database> = split(&mut rng, &rows, parts)
                .into_iter()
                .map(database_with)
                .collect();
            for sql in SHAPES {
                let context = format!("seed {seed}, {n_rows} row(s), {parts} part(s): {sql}");
                let single = full.execute(sql).unwrap();
                let gathered = scatter_gather(&mut shards, &mut shadow, sql);
                assert_eq!(single.columns, gathered.columns, "{context}");
                assert_eq!(bits(&single), bits(&gathered), "{context}");
            }
        }
    }
}
