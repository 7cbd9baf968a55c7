//! Crash-recovery chaos suite: kill the process at every WAL crash
//! point inside a full hybrid EM iteration, reopen the durable
//! database, and require the finished run to be bit-identical to one
//! that was never interrupted.
//!
//! The contract under test (docs/ROBUSTNESS.md "Durability & crash
//! recovery"):
//!
//! * a kill at any WAL byte/record boundary is recovered by replay —
//!   the reopened database holds exactly the committed statement
//!   prefix, and a resumed run finishes bit-identical to the baseline;
//! * a *corrupted* log (bit flip in acknowledged bytes) surfaces as
//!   [`sqlengine::Error::Corruption`] or truncates to a committed
//!   prefix — recovery never invents or alters data;
//! * after recovery plus cleanup no work tables are left behind.
//!
//! The kill tests spawn this test binary again as a child process
//! (filtered to `crash_child`), arm a crashing fault rule inside it,
//! and let `std::process::abort()` simulate `kill -9` mid-statement.
//! `SQLEM_CHAOS_STRIDE=N` samples every Nth kill point (CI `--quick`).

use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{EmSession, SqlemConfig, SqlemRun, Strategy};
use sqlengine::{Database, Error as SqlError, FaultPlan, FaultRule, FaultSite};
use std::path::{Path, PathBuf};
use std::process::Command;

const ITERS: usize = 3;
const PREFIX: &str = "cr_";

fn stride() -> usize {
    std::env::var("SQLEM_CHAOS_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

fn blobs() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..20 {
        let t = (i % 4) as f64 * 0.1;
        pts.push(vec![t, t]);
        pts.push(vec![10.0 + t, 10.0 - t]);
    }
    pts
}

fn blob_init() -> GmmParams {
    GmmParams::new(
        vec![vec![3.0, 3.0], vec![7.0, 7.0]],
        vec![10.0, 10.0],
        vec![0.5, 0.5],
    )
}

fn config() -> SqlemConfig {
    SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(ITERS)
        .with_prefix(PREFIX)
        .with_checkpoints()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlem_crash_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Create → load → initialize → run against an existing database.
fn run_full(db: &mut Database, cfg: &SqlemConfig, init: &GmmParams) -> SqlemRun {
    let mut session = EmSession::create(db, cfg, init.p()).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    session.run().unwrap()
}

/// Statement counts of a clean run: (after create+load+initialize,
/// after run). The injector's counter is the sweep's index space.
fn statement_counts(cfg: &SqlemConfig, init: &GmmParams) -> (usize, usize) {
    let mut db = Database::new();
    db.set_fault_plan(FaultPlan::new(Vec::new()));
    let mut session = EmSession::create(&mut db, cfg, init.p()).unwrap();
    session.load_points(&blobs()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    let after_init = session.database().fault_injector().unwrap().executed();
    session.run().unwrap();
    let total = session.database().fault_injector().unwrap().executed();
    (after_init, total)
}

/// Non-checkpoint work tables left behind with the session prefix.
fn leaked(db: &Database, prefix: &str) -> Vec<String> {
    db.catalog()
        .table_names()
        .into_iter()
        .filter(|t| t.starts_with(prefix) && !t.contains("ckpt"))
        .map(str::to_string)
        .collect()
}

fn site_name(site: FaultSite) -> &'static str {
    match site {
        FaultSite::BeforeWalAppend => "before-wal-append",
        FaultSite::AfterWalAppend => "after-wal-append",
        FaultSite::BeforeWalSync => "before-wal-sync",
        _ => unreachable!("not a WAL crash point"),
    }
}

fn site_from_name(name: &str) -> FaultSite {
    match name {
        "before-wal-append" => FaultSite::BeforeWalAppend,
        "after-wal-append" => FaultSite::AfterWalAppend,
        "before-wal-sync" => FaultSite::BeforeWalSync,
        other => panic!("unknown crash site {other:?}"),
    }
}

/// Child half of the kill tests. A no-op unless the parent set the
/// `SQLEM_CRASH_*` environment: then it runs the checkpointed EM
/// session on the durable database with a crashing fault armed, and
/// `std::process::abort()` kills it mid-statement when the rule fires.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("SQLEM_CRASH_DIR") else {
        return;
    };
    let site = site_from_name(&std::env::var("SQLEM_CRASH_SITE").unwrap());
    let nth: usize = std::env::var("SQLEM_CRASH_NTH").unwrap().parse().unwrap();

    let mut db = Database::open_durable(&dir).unwrap();
    db.set_fault_plan(FaultPlan::single(
        FaultRule::nth(nth).at_site(site).crashing(),
    ));
    // If the rule never fires (statement `nth` is not a mutating one,
    // so it has no WAL window), the run simply completes.
    run_full(&mut db, &config(), &blob_init());
}

/// Spawn the `crash_child` test in a fresh process. Returns `true` if
/// the child was killed by the armed crash point, `false` if the run
/// completed; anything else (a panic, a wrong exit) fails the test.
fn spawn_child(dir: &Path, site: FaultSite, nth: usize) -> bool {
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["crash_child", "--exact", "--test-threads=1", "--nocapture"])
        .env("SQLEM_CRASH_DIR", dir)
        .env("SQLEM_CRASH_SITE", site_name(site))
        .env("SQLEM_CRASH_NTH", nth.to_string())
        .output()
        .unwrap();
    if out.status.success() {
        return false;
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            out.status.signal(),
            Some(6), // SIGABRT: the simulated power cut
            "{} @ {nth}: child died abnormally but not at the crash point:\n{}",
            site_name(site),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    true
}

/// Reopen the durable database the child left behind and finish the
/// run from its checkpoint. Every kill of the sweep lands after
/// iteration 1's checkpoint committed, and a checkpoint write keeps the
/// previous generation readable until the next one lands, so there is
/// always one to resume.
fn recover_and_finish(dir: &Path, cfg: &SqlemConfig, init: &GmmParams, ctx: &str) -> SqlemRun {
    let mut db = Database::open_durable(dir)
        .unwrap_or_else(|e| panic!("{ctx}: a pure kill must never corrupt the log: {e}"));
    let mut session = EmSession::create(&mut db, cfg, init.p()).unwrap();
    session.load_points(&blobs()).unwrap();
    let resumed = session.resume_from_checkpoint().unwrap();
    assert!(
        matches!(resumed, Some(i) if i >= 1),
        "{ctx}: no checkpoint to resume from ({resumed:?})"
    );
    let run = session.run().unwrap();
    session.cleanup().unwrap();
    session.clear_checkpoint().unwrap();
    drop(session);
    let left = leaked(&db, PREFIX);
    assert!(left.is_empty(), "{ctx}: leaked work tables {left:?}");
    run
}

/// The tentpole sweep: for every statement index of one full hybrid EM
/// iteration × every WAL crash point, kill a child process there,
/// reopen, resume, and require bit-identical results.
#[test]
fn kill_at_every_wal_crash_point_recovers_bit_identical() {
    let init = blob_init();
    let cfg = config();
    let baseline = run_full(&mut Database::new(), &cfg, &init);
    assert_eq!(baseline.iterations, ITERS, "baseline must not stop early");

    let (after_init, total) = statement_counts(&cfg, &init);
    let per_iter = (total - after_init) / ITERS;
    assert!(per_iter > 0, "no statements in an iteration?");

    // Iteration 2, its checkpoint write included: the iteration-1
    // checkpoint exists throughout, so every recovery must resume.
    let sweep: Vec<usize> = (after_init + per_iter..after_init + 2 * per_iter + 1)
        .step_by(stride())
        .collect();
    let sites = [
        FaultSite::BeforeWalAppend,
        FaultSite::AfterWalAppend,
        FaultSite::BeforeWalSync,
    ];

    let mut kills = 0usize;
    for site in sites {
        for &nth in &sweep {
            let ctx = format!("kill {} @ statement {nth}", site_name(site));
            let dir = temp_dir(&format!("{}_{nth}", site_name(site)));
            let crashed = spawn_child(&dir, site, nth);
            kills += usize::from(crashed);
            let run = recover_and_finish(&dir, &cfg, &init, &ctx);
            assert_eq!(run.iterations, baseline.iterations, "{ctx}: iterations");
            assert_eq!(run.llh_history, baseline.llh_history, "{ctx}: llh history");
            assert_eq!(run.params, baseline.params, "{ctx}: final model");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // The sweep is vacuous if no child ever died: most statements in an
    // EM iteration are mutating, so most indices must have crashed.
    assert!(
        kills * 2 >= sweep.len() * sites.len(),
        "only {kills} kills across {} points — crash points not firing",
        sweep.len() * sites.len()
    );
}

/// A flipped bit anywhere in the acknowledged log must surface as a
/// typed corruption error or truncate to a committed prefix — never
/// silently alter recovered data.
#[test]
fn wal_bit_flip_is_detected_or_truncates_to_a_prefix() {
    let dir = temp_dir("flip");
    const N: i64 = 12;
    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY)").unwrap();
        for i in 0..N {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();

    for pos in (0..bytes.len()).step_by(stride()) {
        for bit in [0x01u8, 0x80u8] {
            let mut bad = bytes.clone();
            bad[pos] ^= bit;
            std::fs::write(&wal, &bad).unwrap();
            match Database::open_durable(&dir) {
                Err(SqlError::Corruption { .. }) => {} // detected
                Err(e) => panic!("flip at byte {pos}: wrong error class: {e}"),
                Ok(mut db) => {
                    // Undetected flips may only tear the tail: the
                    // recovered rows must be a contiguous id prefix.
                    let rows = if db.contains_table("t") {
                        let r = db.execute("SELECT a FROM t ORDER BY a").unwrap();
                        r.rows
                            .iter()
                            .map(|row| match row[0] {
                                sqlengine::Value::Int(v) => v,
                                ref other => panic!("unexpected value {other:?}"),
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let want: Vec<i64> = (0..rows.len() as i64).collect();
                    assert_eq!(
                        rows, want,
                        "flip at byte {pos} bit {bit:#x} altered recovered data"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Cutting the log at any byte — a torn final write — must reopen
/// without error to a committed statement prefix.
#[test]
fn wal_truncation_at_any_byte_recovers_a_prefix() {
    let dir = temp_dir("trunc");
    const N: i64 = 12;
    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY)").unwrap();
        for i in 0..N {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();

    let mut seen_full = false;
    for cut in (0..=bytes.len()).rev().step_by(stride()) {
        std::fs::write(&wal, &bytes[..cut]).unwrap();
        let mut db = Database::open_durable(&dir)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: truncation must recover: {e}"));
        let rows: Vec<i64> = if db.contains_table("t") {
            db.execute("SELECT a FROM t ORDER BY a")
                .unwrap()
                .rows
                .iter()
                .map(|row| match row[0] {
                    sqlengine::Value::Int(v) => v,
                    ref other => panic!("unexpected value {other:?}"),
                })
                .collect()
        } else {
            Vec::new()
        };
        let want: Vec<i64> = (0..rows.len() as i64).collect();
        assert_eq!(rows, want, "cut at byte {cut} altered recovered data");
        seen_full = seen_full || rows.len() as i64 == N;
    }
    assert!(seen_full, "the uncut log must recover all {N} rows");
    std::fs::remove_dir_all(&dir).ok();
}

/// Compacting mid-run folds the WAL into a snapshot; a subsequent
/// reopen must see the identical catalog, and the EM checkpoint must
/// still resume across the compaction boundary.
#[test]
fn compaction_preserves_checkpoint_across_reopen() {
    let init = blob_init();
    let cfg = config();
    let baseline = run_full(&mut Database::new(), &cfg, &init);

    let dir = temp_dir("compact");
    {
        let mut db = Database::open_durable(&dir).unwrap();
        // Stop at the iteration cap of 2 with a checkpoint, compact,
        // and drop the database mid-job.
        let cfg2 = cfg.clone().with_max_iterations(2);
        let mut session = EmSession::create(&mut db, &cfg2, init.p()).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init.clone()))
            .unwrap();
        session.run().unwrap();
        drop(session);
        db.compact().unwrap();
        assert!(db.wal_len().unwrap() < 64, "compaction must reset the log");
    }

    let mut db = Database::open_durable(&dir).unwrap();
    let mut session = EmSession::create(&mut db, &cfg, init.p()).unwrap();
    session.load_points(&blobs()).unwrap();
    assert_eq!(
        session.resume_from_checkpoint().unwrap(),
        Some(2),
        "checkpoint must survive compaction + reopen"
    );
    let run = session.run().unwrap();
    assert_eq!(run.llh_history, baseline.llh_history);
    assert_eq!(run.params, baseline.params);
    std::fs::remove_dir_all(&dir).ok();
}
