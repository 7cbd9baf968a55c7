//! Atomic statement semantics + scripted fault injection, exercised
//! through the public [`Database`] API.
//!
//! The SQLEM driver retries failed statements (docs/ROBUSTNESS.md); a
//! retry is only safe if a failed statement left the database exactly as
//! it was. These tests pin that contract for organic mid-statement
//! failures (primary-key violation partway through an INSERT … SELECT,
//! arithmetic error partway through an UPDATE) and for the scripted
//! faults from [`sqlengine::fault`].

use sqlengine::{Database, Error, FaultPlan, FaultRule, StatementKind, Value};

fn table_rows(db: &mut Database, sql: &str) -> Vec<Vec<Value>> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.to_vec())
        .collect()
}

#[test]
fn failed_insert_select_leaves_target_untouched() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, v DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 1.0)").unwrap();
    db.execute("CREATE TABLE s (a BIGINT, v DOUBLE)").unwrap();
    // Middle source row collides with t's existing key: the batch must
    // fail *after* row (10, …) would have been inserted by a naive
    // row-at-a-time implementation.
    db.execute("INSERT INTO s VALUES (10, 10.0), (1, 99.0), (20, 20.0)")
        .unwrap();

    let before = table_rows(&mut db, "SELECT a, v FROM t ORDER BY a");
    let err = db.execute("INSERT INTO t SELECT a, v FROM s").unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }), "{err}");
    let after = table_rows(&mut db, "SELECT a, v FROM t ORDER BY a");
    assert_eq!(before, after, "failed INSERT…SELECT must be a no-op");

    // And the retry path: fix the source, retry, everything lands.
    db.execute("DELETE FROM s WHERE a = 1").unwrap();
    let r = db.execute("INSERT INTO t SELECT a, v FROM s").unwrap();
    assert_eq!(r.rows_affected, 2);
    assert_eq!(db.table_len("t").unwrap(), 3);
}

#[test]
fn failed_insert_values_leaves_target_and_index_untouched() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY)").unwrap();
    let err = db
        .execute("INSERT INTO t VALUES (7), (8), (7)")
        .unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }), "{err}");
    assert_eq!(db.table_len("t").unwrap(), 0);
    // The rolled-back keys must not linger in the PK index.
    db.execute("INSERT INTO t VALUES (7), (8)").unwrap();
    assert_eq!(db.table_len("t").unwrap(), 2);
}

#[test]
fn failed_update_leaves_table_untouched() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, v DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 2.0), (2, 0.0), (3, 4.0)")
        .unwrap();
    let before = table_rows(&mut db, "SELECT a, v FROM t ORDER BY a");
    // Row a=1 divides fine; row a=2 divides by zero. A non-atomic UPDATE
    // would leave a=1 mutated.
    let err = db.execute("UPDATE t SET v = 1.0 / v").unwrap_err();
    assert!(matches!(err, Error::Arithmetic(_)), "{err}");
    let after = table_rows(&mut db, "SELECT a, v FROM t ORDER BY a");
    assert_eq!(before, after, "failed UPDATE must be a no-op");
}

#[test]
fn bulk_insert_is_atomic_on_duplicate_key() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY)").unwrap();
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::Int(1)],
        vec![Value::Int(2)],
        vec![Value::Int(1)],
    ];
    let err = db.bulk_insert("t", rows).unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }), "{err}");
    assert_eq!(db.table_len("t").unwrap(), 0);
    db.bulk_insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
        .unwrap();
    assert_eq!(db.table_len("t").unwrap(), 2);
}

#[test]
fn nth_statement_fault_fires_once_and_retry_succeeds() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY)").unwrap();
    // Statement 1 (0-based, counted from plan installation) blows up,
    // transiently, exactly once.
    db.set_fault_plan(FaultPlan::single(FaultRule::nth(1).transient().once()));

    db.execute("INSERT INTO t VALUES (1)").unwrap(); // stmt 0
    let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err(); // stmt 1
    assert!(err.is_transient(), "{err}");
    assert!(!err.effects_applied(), "BeforeExec fault applies nothing");
    assert_eq!(db.table_len("t").unwrap(), 1, "faulted INSERT is a no-op");

    // Retry the identical statement: budget exhausted, it goes through.
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(db.table_len("t").unwrap(), 2);
    assert_eq!(db.fault_injector().unwrap().total_fired(), 1);
    db.clear_fault_plan();
    assert!(db.fault_injector().is_none());
}

#[test]
fn kind_and_table_rules_classify_permanent() {
    let mut db = Database::new();
    db.execute("CREATE TABLE yx (a BIGINT)").unwrap();
    db.execute("CREATE TABLE other (a BIGINT)").unwrap();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("yx")
            .kind_is(StatementKind::Insert)
            .permanent(),
    ));
    // SELECT on yx: kind mismatch, no fault.
    db.execute("SELECT a FROM yx").unwrap();
    // INSERT into other: table mismatch, no fault.
    db.execute("INSERT INTO other VALUES (1)").unwrap();
    // INSERT into yx: fires, permanent.
    let err = db.execute("INSERT INTO yx VALUES (1)").unwrap_err();
    assert!(
        matches!(
            err,
            Error::Injected {
                transient: false,
                ..
            }
        ),
        "{err}"
    );
    assert!(!err.is_transient());
    assert_eq!(db.table_len("yx").unwrap(), 0);
}

#[test]
fn after_exec_fault_reports_applied_effects() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT)").unwrap();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::kind(StatementKind::Insert).after_exec().once(),
    ));
    let err = db.execute("INSERT INTO t VALUES (1)").unwrap_err();
    assert!(err.effects_applied(), "{err}");
    assert_eq!(
        db.table_len("t").unwrap(),
        1,
        "lost-ack fault: the row IS there even though the client saw an error"
    );

    // A bulk load passes the same frame: the after-exec site fires on it
    // too, with the rows in the table.
    db.set_fault_plan(FaultPlan::single(FaultRule::table("t").after_exec().once()));
    let err = db
        .bulk_insert("t", vec![vec![Value::Int(2)], vec![Value::Int(3)]])
        .unwrap_err();
    assert!(
        matches!(err, Error::Injected { applied: true, .. }),
        "{err}"
    );
    assert_eq!(db.table_len("t").unwrap(), 3);
}

#[test]
fn fault_sequence_counts_only_top_level_statements() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT)").unwrap();
    db.set_fault_plan(FaultPlan::default());
    for i in 0..4 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    assert_eq!(db.fault_injector().unwrap().executed(), 4);
    assert_eq!(db.fault_injector().unwrap().total_fired(), 0);
}

/// A work table filled, dropped and re-created with its schema: the new
/// table holds the dropped one's storage (the catalog hands it over).
fn recreated_work_table() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE s (a BIGINT, v DOUBLE)").unwrap();
    let rows = (0..3000).map(|i| vec![Value::Int(i), Value::Double(i as f64 + 0.5)]);
    db.bulk_insert("s", rows).unwrap();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, v DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO t SELECT a, v FROM s").unwrap();
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, v DOUBLE)")
        .unwrap();
    db
}

#[test]
fn failed_inserts_into_a_recreated_table_leave_it_empty_and_usable() {
    let insert = "INSERT INTO t SELECT a, v FROM s";
    // An injected fault: the statement never runs.
    let mut db = recreated_work_table();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("t").kind_is(StatementKind::Insert).once(),
    ));
    let err = db.execute(insert).unwrap_err();
    assert!(matches!(err, Error::Injected { .. }), "{err}");
    assert_eq!(db.table_len("t").unwrap(), 0);
    assert_eq!(db.execute(insert).unwrap().rows_affected, 3000);
    db.clear_fault_plan();

    // A row that does not coerce, after the SELECT staged 2000 rows into
    // the table's storage: the storage goes with the failed statement.
    let mut db = recreated_work_table();
    let err = db
        .execute("INSERT INTO t SELECT CASE WHEN a < 2000 THEN a ELSE v END, v FROM s")
        .unwrap_err();
    assert!(matches!(err, Error::TypeMismatch { .. }), "{err}");
    assert_eq!(db.table_len("t").unwrap(), 0);
    assert!(table_rows(&mut db, "SELECT a FROM t WHERE a = 7").is_empty());
    assert_eq!(db.execute(insert).unwrap().rows_affected, 3000);
    let rows = table_rows(
        &mut db,
        "SELECT s.a, t.v FROM s, t WHERE s.a = t.a AND s.a = 2999",
    );
    assert_eq!(rows, [vec![Value::Int(2999), Value::Double(2999.5)]]);

    // A duplicate key found once every row is staged.
    let mut db = recreated_work_table();
    let err = db
        .execute("INSERT INTO t SELECT a - mod(a, 2), v FROM s")
        .unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }), "{err}");
    assert_eq!(db.table_len("t").unwrap(), 0);
    assert_eq!(db.execute(insert).unwrap().rows_affected, 3000);
}
