//! A prepared statement is planned once: it keeps its plan while every
//! table the plan reads or writes has the schema it was made on, and is
//! planned again from its text when one does not. Every run here is held
//! to the same statement executed as text, bit for bit.

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use sqlem::{build_generator, EmSession, Generator, SqlemConfig, Strategy};
use sqlengine::{
    Database, Error, ExecMetrics, FaultPlan, FaultRule, PreparedId, QueryResult, SqlExecutor, Value,
};

/// Every cell of `r`, a DOUBLE by its bits.
fn bits(r: &QueryResult) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Double(d) => format!("f{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    r.rows
        .iter()
        .map(|row| row.iter().map(cell).collect())
        .collect()
}

const SRC: &str = "CREATE TABLE src (rid BIGINT PRIMARY KEY, a DOUBLE, b BIGINT)";
const COPY: &str = "INSERT INTO dst SELECT rid, a * 0.5, b + 1 FROM src WHERE a > 0.25";
const DUMP: &str = "SELECT rid, a, b FROM dst ORDER BY rid, a";

/// `src` with `def`'s layout, holding the same eight rows whatever the
/// column order; and an empty `dst`.
fn fill(db: &mut Database, def: &str) {
    db.execute("DROP TABLE IF EXISTS src").unwrap();
    db.execute(def).unwrap();
    db.execute("DROP TABLE IF EXISTS dst").unwrap();
    db.execute("CREATE TABLE dst (rid BIGINT, a DOUBLE, b DOUBLE)")
        .unwrap();
    for i in 0..8 {
        let (a, b) = (f64::from(i) / 3.0, 7 - i);
        db.execute(&format!(
            "INSERT INTO src (b, a, rid) VALUES ({b}, {a:?}, {i})"
        ))
        .unwrap();
    }
}

/// The statement prepared on `db`, run once so its plan is kept.
fn prepared_and_run(db: &mut Database, sql: &str) -> PreparedId {
    let ids = db.prepare_script(&[sql.to_string()]).unwrap();
    db.run_prepared(ids[0]).unwrap();
    ids[0]
}

#[test]
fn a_reshaped_source_is_planned_again_and_runs_as_text_does() {
    let reshaped = [
        // Columns reordered.
        "CREATE TABLE src (b BIGINT, a DOUBLE, rid BIGINT PRIMARY KEY)",
        // One type changed.
        "CREATE TABLE src (rid BIGINT PRIMARY KEY, a DOUBLE, b DOUBLE)",
        // Another key.
        "CREATE TABLE src (rid BIGINT, a DOUBLE, b BIGINT PRIMARY KEY)",
        // The same schema again: the kept plan runs.
        SRC,
    ];
    for def in reshaped {
        let (mut prepared, mut text) = (Database::new(), Database::new());
        fill(&mut prepared, SRC);
        let id = prepared_and_run(&mut prepared, COPY);
        fill(&mut prepared, def);
        fill(&mut text, def);
        prepared.enable_metrics();
        let got = prepared.run_prepared(id).unwrap();
        let want = text.execute(COPY).unwrap();
        assert_eq!(got.rows_affected, want.rows_affected, "{def}");
        let (got, want) = (prepared.execute(DUMP).unwrap(), text.execute(DUMP).unwrap());
        assert_eq!(bits(&got), bits(&want), "{def}");
        assert_eq!(got.rows.len(), 7, "{def}");
        // Planned again, unless the schema is the one it was made on.
        let planned = !prepared.metrics().entries()[0].plan_time.is_zero();
        assert_eq!(planned, def != SRC, "{def}");
    }
}

#[test]
fn a_dropped_source_fails_with_the_planning_error() {
    let mut db = Database::new();
    fill(&mut db, SRC);
    let id = prepared_and_run(&mut db, COPY);
    db.execute("DROP TABLE src").unwrap();
    let err = db.run_prepared(id).unwrap_err();
    assert!(matches!(err, Error::Analyze(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "semantic analysis: in FROM: unknown table src"
    );
    // Back with its schema, the statement runs as text does.
    let mut text = Database::new();
    fill(&mut db, SRC);
    fill(&mut text, SRC);
    db.run_prepared(id).unwrap();
    text.execute(COPY).unwrap();
    assert_eq!(
        bits(&db.execute(DUMP).unwrap()),
        bits(&text.execute(DUMP).unwrap())
    );
}

#[test]
fn an_armed_fault_fires_before_a_stale_plan_is_planned_again() {
    let mut db = Database::new();
    fill(&mut db, SRC);
    let id = prepared_and_run(&mut db, COPY);
    db.execute("DROP TABLE src").unwrap();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("dst").permanent().once(),
    ));
    let err = db.run_prepared(id).unwrap_err();
    assert!(matches!(err, Error::Injected { .. }), "{err:?}");
    // The fault spent, the run gets as far as planning.
    let err = db.run_prepared(id).unwrap_err();
    assert!(matches!(err, Error::Analyze(_)), "{err:?}");
}

/// The counters of `m` that do not depend on the clock.
fn exact(m: &ExecMetrics) -> ExecMetrics {
    ExecMetrics {
        plan_time: Default::default(),
        elapsed: Default::default(),
        ..m.clone()
    }
}

#[test]
fn a_steady_em_iteration_plans_nothing_and_counts_what_text_does() {
    let (n, p, k) = (300, 3, 3);
    let data = generate_dataset(n, p, k, 5);
    for strategy in [Strategy::Hybrid, Strategy::Vertical, Strategy::Horizontal] {
        let name = strategy.name();
        let config = SqlemConfig::new(k, strategy);
        let (mut kept, mut text) = (Database::new(), Database::new());
        let mut sessions = [&mut kept, &mut text].map(|db| {
            let mut session = EmSession::create(db, &config, p).unwrap();
            session.load_points(&data.points).unwrap();
            session
                .initialize(&InitStrategy::Random { seed: 3 })
                .unwrap();
            session.executor().set_metrics_enabled(true).unwrap();
            session
        });
        let generator = build_generator(&config, p);
        let mut script = generator.e_step();
        script.extend(generator.m_step());
        for iteration in 1..=2 {
            // The prepared statements of one iteration; then the same
            // statements executed as text on the twin database.
            let [prepared, twin] = &mut sessions;
            let from = prepared.executor().metrics_len().unwrap();
            prepared.iterate_once().unwrap();
            let mut got = prepared.executor().metrics_since(from).unwrap();
            got.pop(); // the loglikelihood read, which is text
            let from = twin.executor().metrics_len().unwrap();
            for stmt in &script {
                twin.executor().execute(&stmt.sql).unwrap();
            }
            let want = twin.executor().metrics_since(from).unwrap();
            assert_eq!(got.len(), want.len(), "{name}");
            let planned = got.iter().filter(|m| !m.plan_time.is_zero()).count();
            match iteration {
                1 => assert!(planned > 0, "{name}"),
                _ => assert_eq!(planned, 0, "{name}: {got:?}"),
            }
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    exact(got),
                    exact(want),
                    "{name} iteration {iteration} statement {i}"
                );
            }
        }
        let [prepared, twin] = &mut sessions;
        let params = |s: &mut EmSession<'_, Database>| format!("{:?}", s.params().unwrap());
        assert_eq!(params(prepared), params(twin), "{name}");
    }
}
