//! Resource-governance invariants (integration tests).
//!
//! The runtime governor is the engine's one memory model
//! (`sqlengine::resource`):
//!
//! * **charge sites** — the statements that build, group, materialize
//!   or stage report a nonzero `peak_mem_bytes` gauge;
//! * **accounting determinism** — charges are monotone within a
//!   statement (released only at statement end), so the per-statement
//!   peak gauge is a pure function of the statement and its input
//!   tables. Running the same workload serially or through concurrent
//!   `SharedDatabase` clones must yield bit-identical gauge multisets.

use std::time::Instant;

use sqlengine::resource::MemoryBudget;
use sqlengine::{Database, Error, Row, SharedDatabase, Value};

/// A small join + group-by script exercising every runtime charge
/// site: staged INSERT batches, a hash-join build side, a merged
/// group table, a materialized sorted SELECT and staged UPDATE values
/// (one UPDATE … FROM building a hash table over its filtered FROM table).
const SCRIPT: &[(&str, &str)] = &[
    (
        "create:t",
        "CREATE TABLE t (a BIGINT PRIMARY KEY, b DOUBLE)",
    ),
    (
        "create:u",
        "CREATE TABLE u (a BIGINT PRIMARY KEY, c DOUBLE)",
    ),
    (
        "create:o",
        "CREATE TABLE o (a BIGINT PRIMARY KEY, s DOUBLE)",
    ),
    (
        "fill:t",
        "INSERT INTO t VALUES (1, 2.0), (2, 3.0), (3, 4.0)",
    ),
    (
        "fill:u",
        "INSERT INTO u VALUES (1, 10.0), (2, 20.0), (3, 30.0)",
    ),
    (
        "join",
        "INSERT INTO o SELECT t.a, sum(t.b * u.c) FROM t, u \
         WHERE t.a = u.a GROUP BY t.a",
    ),
    ("read", "SELECT a, s FROM o ORDER BY s"),
    ("update", "UPDATE t SET b = b + 1"),
    (
        "update from",
        "UPDATE t FROM u SET b = u.c * 2 WHERE t.a = u.a AND u.c > 15.0",
    ),
    // One visible item, two accumulators: the hybrid C statement's
    // `sum(z.yd * xj) / sum(xj)` shape.
    ("ratio", "SELECT a, sum(b * b) / sum(b) FROM t GROUP BY a"),
    ("drop:o", "DROP TABLE o"),
    ("drop:u", "DROP TABLE u"),
    ("drop:t", "DROP TABLE t"),
];

#[test]
fn join_and_update_from_charge_runtime_peak_memory() {
    let mut db = Database::new();
    db.enable_metrics();
    for (_, sql) in SCRIPT {
        db.execute(sql).unwrap();
    }
    let metrics = db.take_metrics();
    assert_eq!(metrics.len(), SCRIPT.len());
    let peak = |purpose: &str| {
        let i = SCRIPT.iter().position(|(p, _)| *p == purpose).unwrap();
        metrics[i].peak_mem_bytes
    };

    // The join INSERT touches a build side, a group table and a
    // staging buffer.
    assert!(peak("join") > 0, "join statement charged nothing");
    // Both UPDATEs stage their new values; the second also builds.
    assert!(peak("update") > 0);
    assert!(peak("update from") > peak("update"));
}

/// One client's workload against its private table.
fn client_statements(c: usize) -> Vec<String> {
    let mut out = vec![format!(
        "CREATE TABLE w{c} (a BIGINT PRIMARY KEY, x DOUBLE)"
    )];
    for i in 0..20 {
        out.push(format!("INSERT INTO w{c} VALUES ({i}, {i}.25)"));
    }
    out.push(format!("SELECT a, sum(x) FROM w{c} GROUP BY a"));
    out.push(format!("SELECT count(*), sum(x) FROM w{c}"));
    out.push(format!("DROP TABLE w{c}"));
    out
}

/// Sorted multiset of (kind, peak) gauge pairs for one run.
fn gauge_multiset(metrics: &[sqlengine::ExecMetrics]) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = metrics
        .iter()
        .map(|m| (format!("{:?}", m.kind), m.peak_mem_bytes))
        .collect();
    v.sort();
    v
}

#[test]
fn peak_memory_gauges_are_identical_serial_and_shared_parallel() {
    const CLIENTS: usize = 4;

    // Serial baseline: one database, clients run back to back.
    let mut db = Database::new();
    db.enable_metrics();
    for c in 0..CLIENTS {
        for sql in client_statements(c) {
            db.execute(&sql).unwrap();
        }
    }
    let serial = gauge_multiset(&db.take_metrics());

    // Concurrent run: the same statements race through SharedDatabase
    // clones. Monotone per-statement charging makes each gauge a pure
    // function of the statement, so the multisets must be identical.
    let shared = SharedDatabase::default();
    shared.with(|db| db.enable_metrics());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = shared.clone();
            s.spawn(move || {
                for sql in client_statements(c) {
                    client.execute(&sql).unwrap();
                }
            });
        }
    });
    let parallel = shared.with(|db| gauge_multiset(&db.take_metrics()));

    assert_eq!(serial, parallel);
    // The gauges are real, not a wall of zeros: every INSERT stages at
    // least one row.
    assert!(serial.iter().filter(|(_, p)| *p > 0).count() >= CLIENTS * 20);
}

/// `t(k, x)` of `n` rows and a ten-row lookup `l(k, y)` matching ten of
/// them.
fn dml_fixture(n: i64) -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE t (k BIGINT PRIMARY KEY, x DOUBLE);
         CREATE TABLE l (k BIGINT PRIMARY KEY, y DOUBLE)",
    )
    .unwrap();
    let rows = |n: i64, step: i64| {
        (0..n).map(move |i| vec![Value::Int(i * step), Value::Double(i as f64)])
    };
    db.bulk_insert("t", rows(n, 1)).unwrap();
    db.bulk_insert("l", rows(10, 7)).unwrap();
    db
}

fn contents(db: &mut Database) -> Vec<Row> {
    db.execute("SELECT k, x FROM t ORDER BY k").unwrap().rows
}

/// UPDATE and DELETE run on the SELECT pipeline, so a statement deadline
/// that has passed stops them before they change anything.
#[test]
fn an_expired_deadline_stops_update_and_delete() {
    for sql in [
        "UPDATE t SET x = x + 1",
        "UPDATE t FROM l SET x = l.y WHERE t.k = l.k",
        "DELETE FROM t WHERE x > 2500.0",
    ] {
        let mut db = dml_fixture(5000);
        let before = contents(&mut db);
        db.set_statement_deadline(Some(Instant::now()));
        let err = db.execute(sql).unwrap_err();
        assert!(matches!(err, Error::Deadline { .. }), "{sql}: {err:?}");
        db.set_statement_deadline(None);
        assert_eq!(contents(&mut db), before, "{sql}");
        // And with time to spare it goes through.
        assert!(db.execute(sql).unwrap().rows_affected > 0, "{sql}");
    }
}

/// An UPDATE's staged values are charged ("staged update"): over a small
/// budget it fails before the table is touched.
#[test]
fn an_update_over_budget_fails_and_changes_nothing() {
    let mut db = dml_fixture(10_000);
    let before = contents(&mut db);
    db.set_memory_budget(Some(MemoryBudget::new(4096)));
    let err = db.execute("UPDATE t SET x = x + 1").unwrap_err();
    assert!(
        matches!(&err, Error::ResourceExhausted { context, .. } if context == "staged update"),
        "{err:?}"
    );
    db.set_memory_budget(None);
    assert_eq!(contents(&mut db), before);
}
