//! Session-level fault tolerance: statement retry, checkpoint/resume,
//! degenerate-model recovery, and error-path cleanup.
//!
//! The full fault-plan sweep lives in the workspace chaos suite
//! (`tests/chaos.rs`); these tests pin each mechanism in isolation.

use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{EmSession, RetryPolicy, SqlemConfig, SqlemError, Strategy};
use sqlengine::{Database, Error as SqlError, FaultPlan, FaultRule, SharedDatabase, StatementKind};

fn blobs() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..40 {
        let t = (i % 4) as f64 * 0.1;
        pts.push(vec![t, t]);
        pts.push(vec![10.0 + t, 10.0 - t]);
    }
    pts
}

fn init_params() -> GmmParams {
    GmmParams::new(
        vec![vec![3.0, 3.0], vec![7.0, 7.0]],
        vec![10.0, 10.0],
        vec![0.5, 0.5],
    )
}

fn run_to_completion(db: &mut Database, config: &SqlemConfig) -> sqlem::SqlemRun {
    let mut session = EmSession::create(db, config, 2).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init_params()))
        .unwrap();
    session.run().unwrap()
}

#[test]
fn transient_fault_retried_to_bit_identical_result() {
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-9)
        .with_max_iterations(12);

    let mut clean_db = Database::new();
    let baseline = run_to_completion(&mut clean_db, &config);

    // Same run, but the first E-step insert into YD dies transiently
    // once, and the policy retries it. BeforeExec faults leave the
    // database untouched, so the retried statement executes against
    // exactly the state the failed attempt saw: the entire run must be
    // bit-identical to the unfaulted one.
    let mut faulty_db = Database::new();
    faulty_db.set_fault_plan(FaultPlan::single(
        FaultRule::table("yd")
            .kind_is(StatementKind::Insert)
            .transient()
            .once(),
    ));
    let with_fault = run_to_completion(
        &mut faulty_db,
        &config.clone().with_retry(RetryPolicy::immediate(3)),
    );

    assert_eq!(with_fault.retries, 1, "exactly one retry");
    assert_eq!(baseline.params, with_fault.params, "bit-identical model");
    assert_eq!(baseline.llh_history, with_fault.llh_history);
}

#[test]
fn retry_does_not_shift_the_statement_sequence() {
    // A retried statement keeps its sequence number, so the injector's
    // statement count after a faulted-and-retried run equals the count
    // of an unfaulted run — retries are invisible to `nth` index space.
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-9)
        .with_max_iterations(6);

    let mut clean_db = Database::new();
    clean_db.set_fault_plan(FaultPlan::default()); // count statements only
    run_to_completion(&mut clean_db, &config);
    let clean_count = clean_db.fault_injector().unwrap().executed();

    let mut faulty_db = Database::new();
    faulty_db.set_fault_plan(FaultPlan::single(
        FaultRule::table("yd")
            .kind_is(StatementKind::Insert)
            .transient()
            .once(),
    ));
    let run = run_to_completion(
        &mut faulty_db,
        &config.clone().with_retry(RetryPolicy::immediate(3)),
    );
    assert_eq!(run.retries, 1, "exactly one retry happened");
    assert_eq!(
        faulty_db.fault_injector().unwrap().executed(),
        clean_count,
        "the retry must not consume a fresh statement sequence number"
    );
}

#[test]
fn retry_budget_exhaustion_surfaces_the_injected_error() {
    let mut db = Database::new();
    // Fires every time: two retries cannot outlast it.
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("yd")
            .kind_is(StatementKind::Insert)
            .transient(),
    ));
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_max_iterations(3)
        .with_retry(RetryPolicy::immediate(3));
    let mut session = EmSession::create(&mut db, &config, 2).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init_params()))
        .unwrap();
    let err = session.run().unwrap_err();
    assert!(
        matches!(
            &err,
            SqlemError::Sql {
                source: SqlError::Injected {
                    transient: true,
                    ..
                },
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(session.retries(), 2, "3 attempts = 2 retries");
}

#[test]
fn permanent_fault_fails_fast_and_leaks_no_tables() {
    let mut db = Database::new();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("yd")
            .kind_is(StatementKind::Insert)
            .permanent(),
    ));
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_prefix("job_")
        .with_max_iterations(3)
        .with_retry(RetryPolicy::immediate(5));
    let mut session = EmSession::create(&mut db, &config, 2).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init_params()))
        .unwrap();
    let err = session.run().unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert_eq!(session.retries(), 0, "permanent faults are never retried");
    drop(session);
    let leaked: Vec<&str> = db
        .catalog()
        .table_names()
        .into_iter()
        .filter(|t| t.starts_with("job_"))
        .collect();
    assert!(leaked.is_empty(), "failed run leaked tables: {leaked:?}");
}

#[test]
fn checkpoint_resume_matches_uninterrupted_run() {
    // Epsilon 0.0 only converges once llh repeats bit-exactly, which
    // keeps the iteration count deterministic for the comparison.
    let base = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_prefix("ck_");

    // Uninterrupted: up to 6 iterations in one go.
    let mut db_a = Database::new();
    let full = run_to_completion(&mut db_a, &base.clone().with_max_iterations(6));
    assert!(full.iterations > 3, "baseline must outlast the checkpoint");

    // Interrupted: 3 iterations with checkpoints, session dropped (the
    // "crash"), then a fresh session resumes from the checkpoint and
    // finishes the remaining 3.
    let mut db_b = Database::new();
    let cfg_b = base.clone().with_checkpoints().with_max_iterations(3);
    run_to_completion(&mut db_b, &cfg_b);
    let cfg_b6 = base.with_checkpoints().with_max_iterations(6);
    let mut resumed = EmSession::create(&mut db_b, &cfg_b6, 2).unwrap();
    resumed.load_points(&blobs()).unwrap();
    let at = resumed.resume_from_checkpoint().unwrap();
    assert_eq!(at, Some(3), "checkpoint recorded 3 completed iterations");
    let run_b = resumed.run().unwrap();

    assert_eq!(run_b.iterations, full.iterations);
    assert_eq!(full.llh_history, run_b.llh_history, "identical history");
    assert_eq!(full.params, run_b.params, "identical final model");
}

/// A checkpointing, retrying configuration and its fault-free 6-iteration
/// run. Checkpoint statements go through the session's retrying executor
/// like every other statement, so a transient fault in one costs a retry
/// and changes nothing else.
fn checkpointing_baseline() -> (SqlemConfig, sqlem::SqlemRun) {
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_prefix("cf_")
        .with_checkpoints()
        .with_retry(RetryPolicy::immediate(3));
    let mut db = Database::new();
    let clean = run_to_completion(&mut db, &config.clone().with_max_iterations(6));
    assert_eq!(clean.retries, 0);
    (config, clean)
}

#[test]
fn a_checkpointed_iteration_costs_four_statements_on_one_table() {
    let config = SqlemConfig::new(2, Strategy::Hybrid).with_max_iterations(1);
    // (statements of one iteration, of one model read, ckpt tables)
    let count = |config: &SqlemConfig| {
        let mut db = Database::new();
        db.set_fault_plan(FaultPlan::default()); // count statements only
        let mut session = EmSession::create(&mut db, config, 2).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        let executed =
            |s: &EmSession<'_, Database>| s.database().fault_injector().unwrap().executed();
        let before = executed(&session);
        session.run().unwrap();
        let iteration = executed(&session) - before;
        session.params().unwrap();
        let read = executed(&session) - before - iteration;
        drop(session);
        let tables = db.catalog().table_names();
        let ckpt_tables = tables.iter().filter(|t| t.contains("ckpt")).count();
        (iteration, read, ckpt_tables)
    };
    let (plain, read, _) = count(&config);
    let (checkpointed, _, tables) = count(&config.with_checkpoints());
    // The driver reads the model back once more, to checkpoint it.
    assert_eq!(
        checkpointed - plain - read,
        4,
        "CREATE, DELETE, bulk insert, DELETE"
    );
    assert_eq!(tables, 1);
}

#[test]
fn transient_fault_in_checkpoint_write_is_retried() {
    let (config, clean) = checkpointing_baseline();
    let mut db = Database::new();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("ckpt").transient().once(),
    ));
    let run = run_to_completion(&mut db, &config.with_max_iterations(6));
    assert_eq!(db.fault_injector().unwrap().total_fired(), 1);
    assert_eq!(run.retries, 1, "exactly one retry");
    assert_eq!(clean.params, run.params, "bit-identical model");
    assert_eq!(clean.llh_history, run.llh_history);
}

#[test]
fn transient_fault_in_checkpoint_read_is_retried() {
    let (config, clean) = checkpointing_baseline();
    let mut db = Database::new();
    run_to_completion(&mut db, &config.clone().with_max_iterations(3));
    // The `SELECT … FROM ckpt` that `resume_from_checkpoint` starts
    // with.
    db.set_fault_plan(FaultPlan::single(
        FaultRule::table("ckpt")
            .kind_is(StatementKind::Select)
            .transient()
            .once(),
    ));
    let config = config.with_max_iterations(6);
    let mut resumed = EmSession::create(&mut db, &config, 2).unwrap();
    resumed.load_points(&blobs()).unwrap();
    assert_eq!(resumed.resume_from_checkpoint().unwrap(), Some(3));
    let run = resumed.run().unwrap();
    assert_eq!(run.retries, 1, "exactly one retry");
    assert_eq!(clean.params, run.params, "bit-identical model");
    assert_eq!(clean.llh_history, run.llh_history);
}

#[test]
fn resume_without_checkpoint_reports_none() {
    let mut db = Database::new();
    let config = SqlemConfig::new(2, Strategy::Hybrid);
    let mut session = EmSession::create(&mut db, &config, 2).unwrap();
    session.load_points(&blobs()).unwrap();
    assert_eq!(session.resume_from_checkpoint().unwrap(), None);
}

#[test]
fn checkpoint_survives_cleanup_and_can_be_cleared() {
    let mut db = Database::new();
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_prefix("cs_")
        .with_checkpoints()
        .with_max_iterations(2);
    let mut session = EmSession::create(&mut db, &config, 2).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init_params()))
        .unwrap();
    session.run().unwrap();
    session.cleanup().unwrap();
    assert!(
        db.contains_table("cs_ckpt"),
        "cleanup must preserve checkpoints"
    );
    assert!(!db.contains_table("cs_yd"), "work tables dropped");

    let mut session = EmSession::create(&mut db, &config, 2).unwrap();
    session.clear_checkpoint().unwrap();
    drop(session);
    assert!(!db.contains_table("cs_ckpt"));
}

#[test]
fn cleanup_never_drops_a_checkpoint_a_concurrent_resume_reads() {
    // Two clients of one durable warehouse: one repeatedly cleans up
    // session work tables, the other repeatedly opens a fresh session
    // and resumes from the checkpoint. Cleanup drops `Names::all`,
    // which deliberately excludes the ckpt* tables — so no interleaving
    // may ever leave the resumer without its checkpoint.
    let dir = std::env::temp_dir().join(format!(
        "sqlem_ckpt_shared_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_checkpoints()
        .with_max_iterations(2);
    let mut db = Database::open_durable(&dir).unwrap();
    run_to_completion(&mut db, &config);
    let shared = SharedDatabase::new(db);

    let cleaner = {
        let shared = shared.clone();
        let config = config.clone();
        std::thread::spawn(move || {
            for _ in 0..8 {
                shared.with(|db| {
                    let mut s = EmSession::create(db, &config, 2).unwrap();
                    s.cleanup().unwrap();
                });
            }
        })
    };
    let resumer = {
        let shared = shared.clone();
        let config = config.clone();
        std::thread::spawn(move || {
            for _ in 0..8 {
                shared.with(|db| {
                    let mut s = EmSession::create(db, &config, 2).unwrap();
                    s.load_points(&blobs()).unwrap();
                    let at = s.resume_from_checkpoint().unwrap();
                    assert_eq!(at, Some(2), "checkpoint must survive concurrent cleanup");
                });
            }
        })
    };
    cleaner.join().unwrap();
    resumer.join().unwrap();

    // And the checkpoint survives a real process boundary too: reopen
    // the durable directory and resume once more.
    drop(shared);
    let mut db = Database::open_durable(&dir).unwrap();
    let mut s = EmSession::create(&mut db, &config, 2).unwrap();
    s.load_points(&blobs()).unwrap();
    assert_eq!(s.resume_from_checkpoint().unwrap(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_cluster_reseeded_deterministically() {
    // Cluster 2 starts so far away that exp(-d/2) underflows to exactly
    // zero for every point: its responsibility mass is 0 and the first
    // M step divides by zero. Without recovery that is a typed abort;
    // with recovery the cluster is re-seeded and the run completes.
    let far = GmmParams::new(
        vec![vec![5.0, 5.0], vec![1.0e8, 1.0e8]],
        vec![1.0, 1.0],
        vec![0.5, 0.5],
    );

    let strict = SqlemConfig::new(2, Strategy::Hybrid).with_max_iterations(8);
    let mut db = Database::new();
    let mut session = EmSession::create(&mut db, &strict, 2).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(far.clone()))
        .unwrap();
    let err = session.run().unwrap_err();
    assert!(err.is_degenerate(), "{err}");
    assert_eq!(err.degenerate_cluster(), Some(1));

    let recovering = SqlemConfig::new(2, Strategy::Hybrid)
        .with_max_iterations(8)
        .with_degenerate_recovery(42);
    let run = |seed_cfg: &SqlemConfig| {
        let mut db = Database::new();
        let mut session = EmSession::create(&mut db, seed_cfg, 2).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .initialize(&InitStrategy::Explicit(far.clone()))
            .unwrap();
        session.run().unwrap()
    };
    let a = run(&recovering);
    assert!(!a.recoveries.is_empty(), "a recovery must be recorded");
    assert_eq!(a.recoveries[0].cluster, 1);
    assert_eq!(a.recoveries[0].iteration, 0);
    a.params.validate().unwrap();

    // Same seed → same repair; different seed → different re-seed point.
    let b = run(&recovering);
    assert_eq!(a.params, b.params, "recovery is deterministic");
    let c = run(&SqlemConfig::new(2, Strategy::Hybrid)
        .with_max_iterations(8)
        .with_degenerate_recovery(43));
    assert!(!c.recoveries.is_empty());
    c.params.validate().unwrap();
}

#[test]
fn dead_cluster_is_degenerate_and_recovers_under_every_strategy() {
    // The far-cluster start above, for every strategy: the vertical M
    // step divides every cluster's mean in one statement (C = C'/W'),
    // and the dead cluster is still the one named and re-seeded.
    let far = GmmParams::new(
        vec![vec![5.0, 5.0], vec![1.0e8, 1.0e8]],
        vec![1.0, 1.0],
        vec![0.5, 0.5],
    );
    for strategy in Strategy::ALL {
        let run = |config: SqlemConfig| {
            let mut db = Database::new();
            let mut session = EmSession::create(&mut db, &config, 2).unwrap();
            session.load_points(&blobs()).unwrap();
            session
                .initialize(&InitStrategy::Explicit(far.clone()))
                .unwrap();
            session.run()
        };
        let strict = SqlemConfig::new(2, strategy).with_max_iterations(8);
        let err = run(strict.clone()).unwrap_err();
        assert!(err.is_degenerate(), "{strategy}: {err}");
        assert_eq!(err.degenerate_cluster(), Some(1), "{strategy}");

        let recovered = run(strict.with_degenerate_recovery(42)).unwrap();
        assert_eq!(recovered.recoveries.len(), 1, "{strategy}");
        assert_eq!(recovered.recoveries[0].cluster, 1, "{strategy}");
        recovered.params.validate().unwrap();
    }
}

#[test]
fn degenerate_error_names_cluster_and_parameter() {
    let e = SqlemError::Degenerate {
        cluster: 1,
        param: "mean y2".to_string(),
    };
    assert!(e.is_degenerate());
    assert!(!e.is_transient());
    assert_eq!(e.degenerate_cluster(), Some(1));
    let msg = e.to_string();
    assert!(
        msg.contains("mean y2") && msg.contains("cluster 1"),
        "{msg}"
    );
}
