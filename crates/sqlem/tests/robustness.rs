//! Property-based and failure-mode tests for the SQLEM driver.

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{analyze_all, EmSession, PlanError, SqlemConfig, SqlemError, Strategy};
use sqlengine::Database;

/// The §3.3 failure mode, reproduced with the preflight disabled: with a
/// realistic parser limit the horizontal distance statement is rejected
/// at high kp while the hybrid runs the identical problem.
#[test]
fn horizontal_hits_parser_limit_where_hybrid_does_not() {
    let (p, k) = (40, 25); // kp = 1000, the paper's stated ceiling
    let data = generate_dataset(50, p, k, 3);

    let mut db = Database::new();
    db.set_max_statement_len(16 * 1024);
    let config = SqlemConfig::new(k, Strategy::Horizontal)
        .with_max_iterations(1)
        .without_preflight();
    let mut session = EmSession::create(&mut db, &config, p).unwrap();
    assert!(session.longest_statement() > 16 * 1024);
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 0 })
        .unwrap();
    let err = session.iterate_once().unwrap_err();
    assert!(
        matches!(err, SqlemError::StatementTooLong { .. }),
        "expected StatementTooLong, got {err:?}"
    );

    let mut db2 = Database::new();
    db2.set_max_statement_len(16 * 1024);
    let config2 = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(1);
    let mut hybrid = EmSession::create(&mut db2, &config2, p).unwrap();
    assert!(hybrid.longest_statement() < 16 * 1024);
    hybrid.load_points(&data.points).unwrap();
    hybrid
        .initialize(&InitStrategy::Random { seed: 0 })
        .unwrap();
    hybrid.iterate_once().unwrap();
}

/// With the preflight on (the default), the same over-limit horizontal
/// configuration never reaches the engine: the analysis predicts the §3.3
/// overflow statically and the driver falls back to hybrid before any
/// DDL executes, then completes the run with hybrid SQL.
#[test]
fn preflight_falls_back_to_hybrid_before_any_sql_runs() {
    let (p, k) = (40, 25);
    let data = generate_dataset(50, p, k, 3);
    let mut db = Database::new();
    db.set_max_statement_len(16 * 1024);
    let config = SqlemConfig::new(k, Strategy::Horizontal)
        .with_epsilon(0.0)
        .with_max_iterations(1);
    let mut session = EmSession::create(&mut db, &config, p).unwrap();

    let decision = session.fallback().expect("preflight should have switched");
    assert_eq!(decision.from, Strategy::Horizontal);
    assert_eq!(decision.to, Strategy::Hybrid);
    assert!(
        decision.reason.contains("parser limit"),
        "{}",
        decision.reason
    );
    assert_eq!(session.config().strategy, Strategy::Hybrid);
    // The switched script fits, so the run proceeds without ever
    // submitting a horizontal statement.
    assert!(session.longest_statement() < 16 * 1024);
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 0 })
        .unwrap();
    session.iterate_once().unwrap();
}

/// When the hybrid script does not fit the parser cap either, the
/// fallback cannot help: the preflight rejects the horizontal strategy
/// outright — before a single table is created.
#[test]
fn preflight_rejects_statically_when_no_fallback_fits() {
    let (p, k) = (40, 25);
    let mut db = Database::new();
    db.set_max_statement_len(1024);
    db.enable_metrics();
    let config = SqlemConfig::new(k, Strategy::Horizontal);
    let err = match EmSession::create(&mut db, &config, p) {
        Ok(_) => panic!("create should fail the preflight"),
        Err(e) => e,
    };
    match err {
        SqlemError::Preflight { strategy, errors } => {
            assert_eq!(strategy, Strategy::Horizontal);
            assert!(!errors.is_empty());
            assert!(errors.iter().all(PlanError::is_capacity));
        }
        other => panic!("expected Preflight, got {other:?}"),
    }
    // Nothing executed: the database has no SQLEM tables.
    assert!(!db.contains_table("yd"));
    assert!(!db.contains_table("gmm"));
    assert!(db.metrics().is_empty());
}

/// Pre-flight sweep over a (p, k) grid spanning the horizontal-overflow
/// region: vertical and hybrid stay clean everywhere, horizontal's
/// verdict flips exactly where its longest statement crosses the parser
/// cap, and every error in the overflow region is a capacity error (no
/// semantic errors anywhere — the generators emit valid SQL at every
/// size).
#[test]
fn preflight_sweep_over_pk_grid() {
    let mut db = Database::new();
    db.set_max_statement_len(16 * 1024);
    let mut horizontal_overflowed = false;
    for p in [2usize, 8, 40] {
        for k in [2usize, 10, 25] {
            let config = SqlemConfig::new(k, Strategy::Hybrid);
            for report in analyze_all(&mut db, &config, p).unwrap() {
                let errors = report.errors();
                match report.strategy {
                    Strategy::Horizontal => {
                        let longest = report.script.statements.iter().map(|s| s.bytes).max();
                        let fits = longest.unwrap() <= 16 * 1024;
                        assert_eq!(
                            report.ok(),
                            fits,
                            "horizontal p={p} k={k}: longest {longest:?} vs verdict {errors:?}",
                        );
                        if !report.ok() {
                            horizontal_overflowed = true;
                            assert!(
                                errors.iter().all(PlanError::is_capacity),
                                "p={p} k={k}: {errors:?}",
                            );
                        }
                    }
                    Strategy::Vertical | Strategy::Hybrid => {
                        assert!(report.ok(), "{} p={p} k={k}: {errors:?}", report.strategy,);
                    }
                }
            }
        }
    }
    assert!(
        horizontal_overflowed,
        "grid should include the horizontal-overflow region"
    );
}

/// A far outlier must not kill the run (§2.5 fallback), in every strategy.
#[test]
fn outliers_survive_in_every_strategy() {
    let mut points: Vec<Vec<f64>> = Vec::new();
    for i in 0..60 {
        let t = (i % 6) as f64 * 0.1;
        points.push(vec![t, -t]);
        points.push(vec![12.0 + t, 12.0 - t]);
    }
    points.push(vec![1.0e7, -1.0e7]); // hopeless outlier
    let init = GmmParams::new(
        vec![vec![3.0, 3.0], vec![9.0, 9.0]],
        vec![20.0, 20.0],
        vec![0.5, 0.5],
    );
    for strategy in Strategy::ALL {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, strategy).with_max_iterations(5);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&points).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init.clone()))
            .unwrap();
        let run = session.run().unwrap();
        run.params
            .validate()
            .unwrap_or_else(|e| panic!("{strategy}: invalid params after outlier run: {e}"));
    }
}

/// Constant dimensions (zero variance) exercise the zero-covariance
/// handling (§2.5) without killing any strategy.
#[test]
fn constant_dimension_handled() {
    let mut points: Vec<Vec<f64>> = Vec::new();
    for i in 0..40 {
        let t = (i % 4) as f64 * 0.2;
        points.push(vec![t, 7.0]); // second dimension constant
        points.push(vec![10.0 + t, 7.0]);
    }
    let init = GmmParams::new(
        vec![vec![3.0, 7.0], vec![8.0, 7.0]],
        vec![10.0, 1.0],
        vec![0.5, 0.5],
    );
    for strategy in Strategy::ALL {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, strategy).with_max_iterations(6);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&points).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init.clone()))
            .unwrap();
        let run = session.run().unwrap();
        // The constant dimension's covariance collapses to ~0 and the
        // means sit at the constant.
        assert!(run.params.cov[1].abs() < 1e-9, "{strategy}");
        for m in &run.params.means {
            assert!((m[1] - 7.0).abs() < 1e-9, "{strategy}: mean {m:?}");
        }
    }
}

/// The entire EM state lives in the C/R/W tables, so a run can be
/// checkpointed by reading the parameters and resumed in a brand-new
/// database — the trajectory must be identical to an uninterrupted run.
#[test]
fn checkpoint_and_resume_reproduces_uninterrupted_run() {
    let data = generate_dataset(600, 3, 3, 21);
    let init = emcore::init::initialize(&data.points, 3, &InitStrategy::Random { seed: 21 });
    let config = SqlemConfig::new(3, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(3);

    // Uninterrupted: 6 iterations.
    let mut db_a = Database::new();
    let full_cfg = config.clone().with_max_iterations(6);
    let mut a = EmSession::create(&mut db_a, &full_cfg, 3).unwrap();
    a.load_points(&data.points).unwrap();
    a.initialize(&InitStrategy::Explicit(init.clone())).unwrap();
    let full = a.run().unwrap();

    // Interrupted: 3 iterations, checkpoint, fresh engine, 3 more.
    let mut db_b = Database::new();
    let mut b1 = EmSession::create(&mut db_b, &config, 3).unwrap();
    b1.load_points(&data.points).unwrap();
    b1.initialize(&InitStrategy::Explicit(init)).unwrap();
    b1.run().unwrap();
    let checkpoint = b1.params().unwrap();
    drop(b1);

    let mut db_c = Database::new();
    let mut b2 = EmSession::create(&mut db_c, &config, 3).unwrap();
    b2.load_points(&data.points).unwrap();
    b2.set_params(&checkpoint).unwrap();
    let resumed = b2.run().unwrap();

    let diff = emcore::compare::max_param_diff(&full.params, &resumed.params);
    assert!(diff < 1e-10, "resume diverged by {diff}");
    // The llh of the resumed first iteration equals the llh the full run
    // measured at iteration 4 (same parameters going in).
    assert!(
        (full.llh_history[3] - resumed.llh_history[0]).abs()
            < 1e-9 * full.llh_history[3].abs().max(1.0)
    );
}
