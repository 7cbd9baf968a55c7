//! MetricsLog under concurrency (regression tests).
//!
//! Several threads share one warehouse through [`SharedDatabase`] clones
//! (the multi-session scenario of the driver's prefixed sessions).
//! Statements serialize through the mutex, so the log must contain
//! exactly one entry per executed statement, with nothing lost,
//! duplicated or cross-attributed even when entries from different
//! clients interleave. A statement itself runs on one thread; parallel
//! work is a shard coordinator's, whose merged metrics `sqlwire`'s
//! cluster tests check against a single node.

use sqlengine::{SharedDatabase, StatementKind, Value};

#[test]
fn shared_database_records_every_statement_exactly_once() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 50;

    let shared = SharedDatabase::default();
    shared.with(|db| db.enable_metrics());
    for c in 0..CLIENTS {
        shared
            .execute(&format!("CREATE TABLE t{c} (a BIGINT, b DOUBLE)"))
            .unwrap();
    }
    let setup = shared.with(|db| db.metrics().len());

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = shared.clone();
            s.spawn(move || {
                for i in 0..ROUNDS {
                    client
                        .execute(&format!("INSERT INTO t{c} VALUES ({i}, {i}.5)"))
                        .unwrap();
                    client
                        .execute(&format!("SELECT count(*), sum(b) FROM t{c}"))
                        .unwrap();
                }
            });
        }
    });

    shared.with(|db| {
        let log = db.metrics();
        // One entry per statement: CLIENTS × ROUNDS × (1 insert + 1 select).
        assert_eq!(log.len() - setup, CLIENTS * ROUNDS * 2);

        // Nothing lost and nothing double-counted, per kind...
        let inserts = log
            .entries()
            .iter()
            .filter(|m| m.kind == Some(StatementKind::Insert))
            .count();
        let selects = log
            .entries()
            .iter()
            .filter(|m| m.kind == Some(StatementKind::Select))
            .count();
        assert_eq!(inserts, CLIENTS * ROUNDS);
        assert_eq!(selects, CLIENTS * ROUNDS);
        let total_inserted: usize = log.entries().iter().map(|m| m.rows_inserted).sum();
        assert_eq!(total_inserted, CLIENTS * ROUNDS);

        // ...and per client: each table was driven by exactly ROUNDS
        // SELECT scans, so interleaving never bled one client's entries
        // into another's counts.
        let scans = log.driver_scans_by_table(setup);
        for c in 0..CLIENTS {
            assert_eq!(
                scans.get(&format!("t{c}")).copied().unwrap_or(0),
                ROUNDS,
                "client {c} scan count"
            );
        }

        // Every SELECT produced exactly one row (the aggregate row).
        assert!(log
            .entries()
            .iter()
            .filter(|m| m.kind == Some(StatementKind::Select))
            .all(|m| m.rows_produced == 1));

        // Planning is part of a statement's time, wherever it happened
        // (these are ad hoc: analysis planned them before the frame).
        assert!(log.entries().iter().all(|m| m.plan_time <= m.elapsed));
    });

    // A bulk load is one more statement of the same frame: its entry
    // carries the time the load took (it plans nothing).
    let (n, entries) = shared.with(|db| {
        db.clear_metrics();
        let rows = (0..10_000).map(|i| vec![Value::Int(i), Value::Double(0.5)]);
        let n = db.bulk_insert("t0", rows).unwrap();
        (n, db.take_metrics())
    });
    assert_eq!(n, 10_000);
    let [m] = entries.as_slice() else {
        panic!("one entry per bulk load, got {}", entries.len());
    };
    assert_eq!(m.kind, Some(StatementKind::Insert));
    assert_eq!(m.rows_inserted, 10_000);
    assert_eq!(m.plan_time, std::time::Duration::ZERO);
    assert!(m.elapsed > std::time::Duration::ZERO);
}

#[test]
fn interleaved_clients_keep_per_statement_attribution() {
    // A tighter interleave: both clients hammer the *same* table, and
    // each SELECT's own entry must still carry exactly one driver scan —
    // per-statement attribution never smears across clients.
    let shared = SharedDatabase::default();
    shared.with(|db| db.enable_metrics());
    shared.execute("CREATE TABLE t (a BIGINT)").unwrap();
    let setup = shared.with(|db| db.metrics().len());

    std::thread::scope(|s| {
        for _ in 0..2 {
            let client = shared.clone();
            s.spawn(move || {
                for i in 0..40 {
                    client
                        .execute(&format!("INSERT INTO t VALUES ({i})"))
                        .unwrap();
                    client.execute("SELECT sum(a) FROM t").unwrap();
                }
            });
        }
    });

    shared.with(|db| {
        for m in &db.metrics().entries()[setup..] {
            match m.kind {
                Some(StatementKind::Insert) => {
                    assert_eq!(m.rows_inserted, 1);
                    assert!(m.scans.is_empty(), "plain INSERT VALUES scans nothing");
                }
                Some(StatementKind::Select) => {
                    let drivers: Vec<_> = m.scans.iter().filter(|s| !s.build).collect();
                    assert_eq!(drivers.len(), 1, "one driver scan per SELECT");
                    assert_eq!(drivers[0].table, "t");
                }
                other => panic!("unexpected statement kind {other:?}"),
            }
        }
    });
}
