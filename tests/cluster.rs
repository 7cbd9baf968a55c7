//! Sharded scale-out: the scatter/gather coordinator must make a
//! multi-shard cluster indistinguishable from a single node.
//!
//! The [`sqlwire::Coordinator`] hash-partitions every rid-bearing table
//! across N shard executors and fragments each generated statement
//! (scatter partial aggregates, gather ordered reads, run
//! partition-local statements verbatim, replicate broadcast-table
//! mutations). These tests pin the contract from the driver's seat:
//!
//! * a full hybrid EM run over embedded shards — final params, llh
//!   history AND the per-iteration cost-model telemetry (`2k+3` n-scans,
//!   1 pn-scan) bit-identical to a single embedded database, for shard
//!   counts 1, 2 and 4;
//! * the same through two *real* wire servers behind
//!   [`sqlwire::RemoteConnection`]s;
//! * one shard killed mid-run and restarted over its durable directory:
//!   the coordinator surfaces the typed transient error, the driver's
//!   `RetryPolicy` rides out the restart through the shard's resume
//!   token, surviving shards are not double-applied, and the final
//!   model is bit-identical to an uninterrupted run;
//! * the threads: shard 0 runs on the caller's thread, every other
//!   shard on one long-lived thread of its own, and dropping the
//!   coordinator drops every shard;
//! * one merged metrics entry per call, partial reads of broadcast
//!   tables included;
//! * a checkpointed run over 2 and 4 shards, capped and then resumed by
//!   a new session, bit-identical to an uninterrupted embedded run; and
//!   `VARIANCE` refused with the embedded engine's typed error.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{EmSession, RetryPolicy, SqlemConfig, SqlemRun, Strategy};
use sqlengine::{
    Database, ExecMetrics, Limits, PartialAggResult, PrepareError, PreparedId, QueryResult,
    SharedDatabase, SqlExecutor, SymbolicCatalog, Value,
};
use sqlwire::{
    ChaosAction, ChaosProxy, ClientConfig, Coordinator, Direction, RemoteConnection, Server,
    ServerConfig, ServerHandle,
};

// ---------------------------------------------------------------------
// harness

/// Two well-separated 2-D blobs; enough rows that 4 shards all own data.
fn points() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..30 {
        let t = (i % 6) as f64 * 0.2;
        pts.push(vec![t, -t]);
        pts.push(vec![9.0 + t, 9.0 - t]);
    }
    pts
}

fn explicit_init() -> GmmParams {
    GmmParams::new(
        vec![vec![2.0, 2.0], vec![7.0, 7.0]],
        vec![8.0, 8.0],
        vec![0.5, 0.5],
    )
}

fn em_config(prefix: &str) -> SqlemConfig {
    SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-12)
        .with_max_iterations(6)
        .with_prefix(prefix)
}

fn run_em<E: SqlExecutor>(db: &mut E, cfg: &SqlemConfig, telemetry: bool) -> SqlemRun {
    let mut session = EmSession::create(db, cfg, 2).unwrap();
    session.load_points(&points()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(explicit_init()))
        .unwrap();
    if telemetry {
        session.enable_telemetry().unwrap();
    }
    session.run().unwrap()
}

fn assert_same_run(label: &str, run: &SqlemRun, baseline: &SqlemRun) {
    assert_eq!(run.params, baseline.params, "{label}: final model diverged");
    assert_eq!(
        run.llh_history, baseline.llh_history,
        "{label}: llh history diverged"
    );
    assert_eq!(run.iterations, baseline.iterations, "{label}: iterations");
    assert_eq!(run.outcome, baseline.outcome, "{label}: outcome");
}

struct TestServer {
    addr: String,
    handle: ServerHandle,
    join: thread::JoinHandle<sqlengine::Result<()>>,
}

impl TestServer {
    fn start(db: SharedDatabase) -> TestServer {
        let config = ServerConfig {
            drain_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", db, config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        TestServer { addr, handle, join }
    }

    fn start_durable(dir: &Path) -> TestServer {
        TestServer::start(SharedDatabase::new(Database::open_durable(dir).unwrap()))
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join.join().unwrap().unwrap();
    }
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlem_cluster_{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn connect(addr: &str) -> RemoteConnection {
    let mut last = None;
    for _ in 0..50 {
        match RemoteConnection::connect(addr, ClientConfig::default()) {
            Ok(conn) => return conn,
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("could not connect to {addr}: {:?}", last);
}

// ---------------------------------------------------------------------
// the tentpole: sharded == single-node, bit for bit

#[test]
fn sharded_hybrid_run_is_bit_identical_to_embedded() {
    let cfg = em_config("sh_");
    let baseline = run_em(&mut Database::new(), &cfg, true);
    assert!(baseline.iterations >= 2, "need a real run to compare");

    for nshards in [1usize, 2, 4] {
        let shards: Vec<Database> = (0..nshards).map(|_| Database::new()).collect();
        let mut coord = Coordinator::new(shards).unwrap();
        let run = run_em(&mut coord, &cfg, true);
        assert_same_run(&format!("{nshards} shards"), &run, &baseline);

        // Cost-model conformance: the merged per-shard telemetry must
        // reproduce the paper's per-iteration scan counts exactly
        // (2k+3 n-scans + 1 pn-scan for hybrid), not nshards× them.
        assert_eq!(
            run.iteration_reports.len(),
            baseline.iteration_reports.len(),
            "{nshards} shards: telemetry coverage"
        );
        for (r, b) in run
            .iteration_reports
            .iter()
            .zip(&baseline.iteration_reports)
        {
            assert_eq!(
                r.n_scans, b.n_scans,
                "{nshards} shards, iteration {}: n-scans",
                r.iteration
            );
            assert_eq!(
                r.pn_scans, b.pn_scans,
                "{nshards} shards, iteration {}: pn-scans",
                r.iteration
            );
            assert_eq!(
                r.temp_rows_materialized, b.temp_rows_materialized,
                "{nshards} shards, iteration {}: temp rows",
                r.iteration
            );
        }
    }
}

#[test]
fn sharded_run_over_real_servers_matches_embedded() {
    let cfg = em_config("sw_");
    let baseline = run_em(&mut Database::new(), &cfg, false);

    let s0 = TestServer::start(SharedDatabase::default());
    let s1 = TestServer::start(SharedDatabase::default());
    let shards = vec![connect(&s0.addr), connect(&s1.addr)];
    let mut coord = Coordinator::new(shards).unwrap();
    let run = run_em(&mut coord, &cfg, false);
    drop(coord);
    s0.stop();
    s1.stop();

    assert_same_run("2 wire shards", &run, &baseline);
}

// ---------------------------------------------------------------------
// fault tolerance: one shard dies mid-run and comes back

#[test]
fn shard_kill_and_restart_mid_run_is_exactly_once() {
    let cfg = em_config("fk_").with_retry(
        RetryPolicy::new(40)
            .with_base_delay(Duration::from_millis(25))
            .with_max_delay(Duration::from_millis(100)),
    );
    let baseline = run_em(&mut Database::new(), &cfg, false);

    // Shard 0 is a plain wire server; shard 1 is durable and fronted by
    // a chaos proxy so it can be killed and revived at a stable address.
    let dir = scratch("shard1");
    let s0 = TestServer::start(SharedDatabase::default());
    let s1 = TestServer::start_durable(&dir);
    let proxy = Arc::new(ChaosProxy::start(s1.addr.as_str()).unwrap());
    // Cut the wire to shard 1 mid-stream; while the client backs off,
    // take the shard down hard and restart it over the same directory.
    proxy.arm(Direction::ToServer, 60, ChaosAction::CutBefore);

    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let restarted = Arc::new(AtomicBool::new(false));
    let restarted_flag = Arc::clone(&restarted);
    let watcher_proxy = Arc::clone(&proxy);
    let watch_dir = dir.clone();
    let watcher = thread::spawn(move || {
        while watcher_proxy.rules_fired() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        watcher_proxy.set_upstream(dead_addr.as_str()).unwrap();
        s1.handle.shutdown();
        let gone = Instant::now() + Duration::from_secs(5);
        while s1.handle.active_sessions() > 0 && Instant::now() < gone {
            thread::sleep(Duration::from_millis(2));
        }
        s1.join.join().unwrap().unwrap();
        let revived = TestServer::start_durable(&watch_dir);
        watcher_proxy.set_upstream(revived.addr.as_str()).unwrap();
        restarted_flag.store(true, Ordering::SeqCst);
        revived
    });

    let shards = vec![connect(&s0.addr), connect(&proxy.addr().to_string())];
    let mut coord = Coordinator::new(shards).unwrap();
    let run = run_em(&mut coord, &cfg, false);
    drop(coord);
    let revived = watcher.join().unwrap();
    assert!(
        restarted.load(Ordering::SeqCst),
        "the shard restart must have happened mid-run"
    );
    assert!(
        run.retries >= 1,
        "the driver must have ridden out the shard kill"
    );
    drop(proxy);
    s0.stop();
    revived.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert_same_run("kill+restart", &run, &baseline);
}

// ---------------------------------------------------------------------
// the threads a coordinator runs its shards on

/// A `Database` that logs the thread of every call made on it and
/// raises a flag when it is dropped.
struct ThreadLog {
    db: Database,
    threads: Arc<Mutex<Vec<ThreadId>>>,
    dropped: Arc<AtomicBool>,
}

impl ThreadLog {
    fn note(&self) {
        self.threads.lock().unwrap().push(thread::current().id());
    }
}

impl Drop for ThreadLog {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

impl SqlExecutor for ThreadLog {
    fn execute(&mut self, sql: &str) -> sqlengine::Result<QueryResult> {
        self.note();
        self.db.execute(sql)
    }
    fn execute_partial(&mut self, sql: &str) -> sqlengine::Result<PartialAggResult> {
        self.note();
        self.db.execute_partial(sql)
    }
    fn prepare_script(&mut self, statements: &[String]) -> Result<Vec<PreparedId>, PrepareError> {
        self.note();
        SqlExecutor::prepare_script(&mut self.db, statements)
    }
    fn run_prepared(&mut self, id: PreparedId) -> sqlengine::Result<QueryResult> {
        self.note();
        SqlExecutor::run_prepared(&mut self.db, id)
    }
    fn clear_prepared(&mut self) -> sqlengine::Result<()> {
        self.note();
        SqlExecutor::clear_prepared(&mut self.db)
    }
    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> sqlengine::Result<usize> {
        self.note();
        SqlExecutor::bulk_insert_rows(&mut self.db, table, rows)
    }
    fn table_rows(&mut self, table: &str) -> sqlengine::Result<usize> {
        self.note();
        SqlExecutor::table_rows(&mut self.db, table)
    }
    fn has_table(&mut self, table: &str) -> sqlengine::Result<bool> {
        self.note();
        SqlExecutor::has_table(&mut self.db, table)
    }
    fn catalog_snapshot(&mut self) -> sqlengine::Result<SymbolicCatalog> {
        self.note();
        SqlExecutor::catalog_snapshot(&mut self.db)
    }
    fn max_statement_len(&self) -> usize {
        self.note();
        SqlExecutor::max_statement_len(&self.db)
    }
    fn analyze_limits(&self) -> Limits {
        self.note();
        SqlExecutor::analyze_limits(&self.db)
    }
    fn memory_budget_bytes(&self) -> Option<u64> {
        self.note();
        SqlExecutor::memory_budget_bytes(&self.db)
    }
    fn note_statement_retry(&mut self) {
        self.note();
        SqlExecutor::note_statement_retry(&mut self.db)
    }
    fn set_metrics_enabled(&mut self, on: bool) -> sqlengine::Result<()> {
        self.note();
        SqlExecutor::set_metrics_enabled(&mut self.db, on)
    }
    fn metrics_enabled(&self) -> bool {
        self.note();
        SqlExecutor::metrics_enabled(&self.db)
    }
    fn metrics_len(&mut self) -> sqlengine::Result<usize> {
        self.note();
        SqlExecutor::metrics_len(&mut self.db)
    }
    fn metrics_since(&mut self, from: usize) -> sqlengine::Result<Vec<ExecMetrics>> {
        self.note();
        SqlExecutor::metrics_since(&mut self.db, from)
    }
    fn describe(&self) -> String {
        self.note();
        SqlExecutor::describe(&self.db)
    }
}

#[test]
fn shard_zero_runs_on_the_caller_and_every_other_shard_on_a_thread_of_its_own() {
    let caller = thread::current().id();
    for nshards in [2usize, 4] {
        let threads: Vec<Arc<Mutex<Vec<ThreadId>>>> =
            (0..nshards).map(|_| Arc::default()).collect();
        let dropped: Vec<Arc<AtomicBool>> = (0..nshards).map(|_| Arc::default()).collect();
        let shards: Vec<ThreadLog> = (0..nshards)
            .map(|i| ThreadLog {
                db: Database::new(),
                threads: Arc::clone(&threads[i]),
                dropped: Arc::clone(&dropped[i]),
            })
            .collect();
        let mut coord = Coordinator::new(shards).unwrap();
        // Construction reads every shard's limits here, before the
        // executors move; what counts is every call after it.
        for log in &threads {
            log.lock().unwrap().clear();
        }
        for sql in [
            "CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE)",
            "CREATE TABLE c (j BIGINT PRIMARY KEY, v DOUBLE)",
            "INSERT INTO y VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0), \
             (6, 6.0), (7, 7.0), (8, 8.0), (9, 9.0), (10, 10.0)",
            "INSERT INTO c SELECT count(rid), sum(v) FROM y",
            "SELECT rid, v FROM y ORDER BY v DESC",
            "UPDATE y SET v = v * 2.0",
        ] {
            coord.execute(sql).unwrap();
        }
        assert_eq!(coord.table_rows("y").unwrap(), 10);
        assert!(coord
            .describe()
            .contains(&format!("over {nshards} shard(s)")));
        coord.note_statement_retry();

        let seen: Vec<HashSet<ThreadId>> = threads
            .iter()
            .map(|log| log.lock().unwrap().iter().copied().collect())
            .collect();
        assert_eq!(
            seen[0],
            HashSet::from([caller]),
            "{nshards} shards: shard 0 runs on the caller's thread"
        );
        for (i, shard) in seen.iter().enumerate().skip(1) {
            assert_eq!(
                shard.len(),
                1,
                "{nshards} shards: shard {i} runs on one thread"
            );
            for (j, other) in seen.iter().enumerate().take(i) {
                assert!(
                    shard.is_disjoint(other),
                    "{nshards} shards: shards {j} and {i} share a thread"
                );
            }
        }
        assert!(
            threads.iter().all(|log| log.lock().unwrap().len() >= 6),
            "{nshards} shards: every shard ran every statement"
        );

        drop(coord);
        for (i, flag) in dropped.iter().enumerate() {
            assert!(
                flag.load(Ordering::SeqCst),
                "{nshards} shards: shard {i} outlived its coordinator"
            );
        }
    }
}

// ---------------------------------------------------------------------
// telemetry: one merged entry per call

/// The `(table, rows)` scans of every metrics entry `run` logs.
fn logged_scans(
    db: &mut dyn SqlExecutor,
    run: impl FnOnce(&mut dyn SqlExecutor),
) -> Vec<Vec<(String, usize)>> {
    let from = db.metrics_len().unwrap();
    run(&mut *db);
    db.metrics_since(from)
        .unwrap()
        .iter()
        .map(|m| m.scans.iter().map(|s| (s.table.clone(), s.rows)).collect())
        .collect()
}

#[test]
fn partial_read_of_broadcast_tables_logs_its_own_metrics_entry() {
    let setup = [
        "CREATE TABLE t (x DOUBLE)",
        "INSERT INTO t VALUES (1.0), (2.0)",
        "CREATE TABLE u (x DOUBLE)",
        "INSERT INTO u VALUES (1.0), (2.0), (3.0)",
    ];
    let mut single = Database::new();
    let mut coord = Coordinator::new(vec![Database::new(), Database::new()]).unwrap();
    let mut logs = Vec::new();
    for db in [&mut single as &mut dyn SqlExecutor, &mut coord] {
        for sql in setup {
            db.execute(sql).unwrap();
        }
        db.set_metrics_enabled(true).unwrap();
        logs.push(logged_scans(db, |db| {
            db.execute_partial("SELECT sum(x) FROM t").unwrap();
            db.execute("SELECT count(*) FROM u").unwrap();
        }));
    }
    let want = vec![vec![("t".to_string(), 2)], vec![("u".to_string(), 3)]];
    assert_eq!(logs[0], want, "embedded");
    assert_eq!(logs[1], want, "2-shard coordinator");
}

// ---------------------------------------------------------------------
// checkpoints and analysis errors through the coordinator

/// A checkpointed run over embedded shards, stopped by its iteration
/// cap and continued by a new session over the same shards, ends on
/// the bits of one uninterrupted embedded run.
#[test]
fn capped_sharded_run_resumes_from_its_checkpoint_bit_identically() {
    let cfg = em_config("ck_").with_max_iterations(8).with_checkpoints();
    let baseline = run_em(&mut Database::new(), &cfg, false);
    assert!(baseline.iterations > 3, "the cap must stop a live run");

    for nshards in [2usize, 4] {
        let label = format!("{nshards} shards");
        let shards: Vec<Database> = (0..nshards).map(|_| Database::new()).collect();
        let mut coord = Coordinator::new(shards).unwrap();
        let capped = run_em(&mut coord, &cfg.clone().with_max_iterations(3), false);
        assert_eq!(capped.iterations, 3, "{label}");

        let mut session = EmSession::create(&mut coord, &cfg, 2).unwrap();
        session.load_points(&points()).unwrap();
        assert_eq!(
            session.resume_from_checkpoint().unwrap(),
            Some(3),
            "{label}"
        );
        let resumed = session.run().unwrap();
        assert_same_run(&label, &resumed, &baseline);
    }
}

/// `VARIANCE` is no aggregate of the engine's: a coordinator refuses it
/// with the embedded engine's typed error, before any shard runs a
/// statement.
#[test]
fn variance_is_refused_before_anything_executes() {
    let mut single = Database::new();
    let mut coord = Coordinator::new(vec![Database::new(), Database::new()]).unwrap();
    for db in [&mut single as &mut dyn SqlExecutor, &mut coord] {
        db.execute("CREATE TABLE t (rid BIGINT PRIMARY KEY, x DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 2.0), (2, 4.0), (3, 5.0)")
            .unwrap();
        db.set_metrics_enabled(true).unwrap();
        let mut error = None;
        let logged = logged_scans(db, |db| {
            error = db.execute("SELECT variance(x) FROM t").err();
        });
        let error = error.expect("variance() must fail");
        assert!(error.as_analyze().is_some(), "{error}");
        assert!(
            error.to_string().contains("unknown function variance()"),
            "{error}"
        );
        assert!(logged.is_empty(), "{logged:?}");
    }
}
