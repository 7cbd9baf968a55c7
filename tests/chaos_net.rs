//! Network chaos sweep: the exactly-once session protocol under a
//! byte-level adversarial wire.
//!
//! A [`ChaosProxy`] sits between a [`RemoteConnection`] and a *durable*
//! [`Server`] and injects faults at chosen byte offsets of chosen
//! frames. A full hybrid EM run is driven through the proxy while the
//! wire is cut at swept frame positions in each of the four classes the
//! protocol must survive:
//!
//! * **pre-request** — the statement never reached the server;
//! * **mid-request** — the server saw a torn frame;
//! * **post-execute / pre-reply** — the server executed but the ack was
//!   lost (the classic duplicate-effects window);
//! * **mid-reply** — the ack was torn.
//!
//! Every run must converge to the *bit-identical* final model and
//! loglikelihood history, with no duplicate-key errors, and the durable
//! WAL must hold exactly the same number of committed mutations as an
//! uninterrupted run — the zero-double-applied-mutations proof: a
//! statement replayed after a lost ack is answered from the server's
//! reply cache (or reconciled as already-applied), never re-executed.
//!
//! The sweep visits every frame index when `SQLEM_CHAOS_STRIDE=1` (the
//! `ci.sh` chaos-net stage does this); by default it strides so the
//! tier-1 `cargo test` stays quick while still covering all four
//! classes at rotating offsets.
//!
//! Also here: the deadline-propagation path through the proxy, the
//! exhausted-retry-budget taxonomy, and a mid-run server kill + restart
//! (WAL + session-log recovery) that the client rides out.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{EmSession, RetryPolicy, SqlemConfig, SqlemRun, Strategy};
use sqlengine::{Database, SharedDatabase, SqlExecutor};
use sqlwire::{
    ChaosAction, ChaosProxy, ClientConfig, Direction, RemoteConnection, Server, ServerConfig,
    ServerHandle,
};

// ---------------------------------------------------------------------
// harness

/// Two well-separated 2-D blobs, small enough that a full run is cheap
/// but long enough to produce a meaningful frame stream.
fn points() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..12 {
        let t = (i % 4) as f64 * 0.25;
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

fn em_config(retry: Option<RetryPolicy>) -> SqlemConfig {
    let mut cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-12)
        .with_max_iterations(4)
        .with_prefix("cn_");
    if let Some(policy) = retry {
        cfg = cfg.with_retry(policy);
    }
    cfg
}

/// Drive the full study (create, load, init, run) over one executor.
fn run_em<E: SqlExecutor>(db: &mut E, cfg: &SqlemConfig) -> SqlemRun {
    let mut session = EmSession::create(db, cfg, 2).unwrap();
    session.load_points(&points()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(explicit_init()))
        .unwrap();
    session.run().unwrap()
}

/// A fresh scratch directory for one durable server's data.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlem_chaos_net_{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A wire server over a WAL-backed database in `dir`.
struct DurableServer {
    addr: String,
    handle: ServerHandle,
    join: thread::JoinHandle<sqlengine::Result<()>>,
}

impl DurableServer {
    fn start(dir: &Path) -> DurableServer {
        let db = Database::open_durable(dir).unwrap();
        let config = ServerConfig {
            drain_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", SharedDatabase::new(db), config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        DurableServer { addr, handle, join }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join.join().unwrap().unwrap();
    }
}

/// Mutation accounting read straight from the write-ahead log: the
/// engine's statement sequence watermark and the number of committed
/// WAL records. A double-applied statement would advance both past the
/// uninterrupted run's values; a lost statement would fall short.
fn wal_stats(dir: &Path) -> (u64, usize) {
    let db = Database::open_durable(dir).unwrap();
    let next_seq = db.wal_next_seq().expect("durable database has a WAL");
    let committed = db
        .wal_recovery_info()
        .map(|r| r.committed.len())
        .unwrap_or(0);
    (next_seq, committed)
}

/// Connect through a possibly-hostile wire: `RemoteConnection::connect`
/// itself redials when a cut armed on the handshake frames eats it.
fn connect(addr: &str) -> RemoteConnection {
    RemoteConnection::connect(addr, ClientConfig::default())
        .unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"))
}

/// Wait for the proxy's relay threads to drain: the final frames of a
/// session (the goodbye and its ack) are written fire-and-forget, so
/// counters and fired rules trail `drop(conn)` by a beat.
fn settle(proxy: &ChaosProxy) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = (
        proxy.frames_forwarded(Direction::ToServer),
        proxy.frames_forwarded(Direction::ToClient),
    );
    loop {
        thread::sleep(Duration::from_millis(20));
        let now = (
            proxy.frames_forwarded(Direction::ToServer),
            proxy.frames_forwarded(Direction::ToClient),
        );
        if now == last || Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// Wait for the armed rule to fire — a cut on the very last frame of
/// the conversation races the relay thread.
fn wait_fired(proxy: &ChaosProxy, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    while proxy.rules_fired() < want && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    proxy.rules_fired()
}

/// Sweep stride: 1 visits every frame (exhaustive — the ci.sh chaos-net
/// stage sets this); the default keeps tier-1 runtime modest while
/// still cutting at several positions per fault class.
fn sweep_stride() -> u64 {
    std::env::var("SQLEM_CHAOS_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(7)
}

fn assert_same_run(label: &str, run: &SqlemRun, baseline: &SqlemRun) {
    assert_eq!(run.params, baseline.params, "{label}: params diverged");
    assert_eq!(
        run.llh_history, baseline.llh_history,
        "{label}: llh history diverged"
    );
    assert_eq!(run.iterations, baseline.iterations, "{label}: iterations");
    assert_eq!(run.outcome, baseline.outcome, "{label}: outcome");
}

// ---------------------------------------------------------------------
// the sweep

#[test]
fn cut_sweep_is_bit_identical_with_zero_double_applies() {
    // Uninterrupted baseline: embedded ground truth, then the same run
    // through a clean proxy against a durable server — this yields the
    // reference frame counts and WAL accounting.
    let embedded = run_em(&mut Database::new(), &em_config(None));

    let base_dir = scratch("sweep_baseline");
    let server = DurableServer::start(&base_dir);
    let proxy = ChaosProxy::start(server.addr.as_str()).unwrap();
    let mut conn = connect(&proxy.addr().to_string());
    let baseline = run_em(&mut conn, &em_config(None));
    drop(conn);
    assert_same_run("clean proxied run vs embedded", &baseline, &embedded);
    let (request_frames, reply_frames) = settle(&proxy);
    assert!(request_frames > 20, "expected a real stream of statements");
    // Strict request/reply, except the goodbye ack: the client closes
    // without reading it, so the proxy may fail to relay that one frame.
    assert!(
        request_frames - reply_frames <= 1,
        "the clean protocol is strictly request/reply ({request_frames} vs {reply_frames})"
    );
    drop(proxy);
    server.stop();
    let (base_seq, base_committed) = wal_stats(&base_dir);
    assert!(base_committed > 0, "mutations must hit the WAL");
    let _ = std::fs::remove_dir_all(&base_dir);

    // Cut offset 12 lands after the 8-byte frame header and 4 payload
    // bytes: a genuinely torn frame for every message in the protocol.
    let classes: [(&str, Direction, ChaosAction); 4] = [
        ("pre-request", Direction::ToServer, ChaosAction::CutBefore),
        ("mid-request", Direction::ToServer, ChaosAction::CutAt(12)),
        ("pre-reply", Direction::ToClient, ChaosAction::CutBefore),
        ("mid-reply", Direction::ToClient, ChaosAction::CutAt(12)),
    ];
    let stride = sweep_stride();
    let retry = RetryPolicy::immediate(6);
    for (class_idx, (name, dir, action)) in classes.iter().enumerate() {
        let frames = match dir {
            Direction::ToServer => request_frames,
            Direction::ToClient => reply_frames,
        };
        // Rotate the starting offset per class so strided runs still
        // cover different residues of the statement stream.
        let mut frame = (class_idx as u64) % stride;
        while frame < frames {
            let label = format!("{name}@{frame}");
            let dir_path = scratch(&format!("sweep_{class_idx}_{frame}"));
            let server = DurableServer::start(&dir_path);
            let proxy = ChaosProxy::start(server.addr.as_str()).unwrap();
            proxy.arm(*dir, frame, *action);
            let mut conn = connect(&proxy.addr().to_string());
            let run = run_em(&mut conn, &em_config(Some(retry.clone())));
            drop(conn);
            // The very last frame of a direction is the session
            // goodbye / its ack — fire-and-forget, so whether it
            // traverses the proxy at all races the teardown. Every
            // earlier frame is part of a strict request/reply exchange
            // and the armed fault MUST have fired on it.
            if frame < frames - 1 {
                assert_eq!(wait_fired(&proxy, 1), 1, "{label}: the fault must fire");
            } else {
                wait_fired(&proxy, 1);
            }
            drop(proxy);
            server.stop();
            assert_same_run(&label, &run, &baseline);
            let (seq, committed) = wal_stats(&dir_path);
            assert_eq!(
                seq, base_seq,
                "{label}: WAL watermark diverged (double- or un-applied mutation)"
            );
            assert_eq!(
                committed, base_committed,
                "{label}: committed WAL record count diverged"
            );
            let _ = std::fs::remove_dir_all(&dir_path);
            frame += stride;
        }
    }
}

#[test]
fn delayed_and_duplicated_wire_traffic_changes_nothing() {
    // A held-back frame is only latency; a duplicated *request* frame
    // must be absorbed by the reply cache. (The duplicate's extra reply
    // is read by the client as the answer to its replayed statement —
    // both copies are bit-identical, so the conversation stays in
    // step.)
    let embedded = run_em(&mut Database::new(), &em_config(None));
    let db = SharedDatabase::default();
    let config = ServerConfig {
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", db, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let proxy = ChaosProxy::start(addr.as_str()).unwrap();
    proxy.arm(Direction::ToServer, 9, ChaosAction::DelayMs(60));
    proxy.arm(Direction::ToClient, 14, ChaosAction::DelayMs(60));
    let mut conn = connect(&proxy.addr().to_string());
    let run = run_em(&mut conn, &em_config(Some(RetryPolicy::immediate(4))));
    drop(conn);
    assert_eq!(wait_fired(&proxy, 2), 2);
    drop(proxy);
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert_same_run("delayed frames", &run, &embedded);
}

// ---------------------------------------------------------------------
// taxonomy: budgets and deadlines

#[test]
fn exhausted_retry_budget_surfaces_typed_transient_error() {
    let db = SharedDatabase::default();
    let config = ServerConfig {
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", db, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let proxy = ChaosProxy::start(addr.as_str()).unwrap();
    // One cut mid-stream, *no* retry budget: the run must fail cleanly
    // with an error the caller can classify as worth retrying — not a
    // panic, not a duplicate-effects corruption.
    proxy.arm(Direction::ToServer, 12, ChaosAction::CutBefore);
    let mut conn = connect(&proxy.addr().to_string());
    let err = (|| {
        let mut session = EmSession::create(&mut conn, &em_config(None), 2)?;
        session.load_points(&points())?;
        session.initialize(&InitStrategy::Explicit(explicit_init()))?;
        session.run().map(|_| ())
    })()
    .expect_err("a cut wire with no retry budget must fail the run");
    assert!(
        err.is_transient(),
        "budget exhaustion must stay classified transient: {err}"
    );
    drop(conn);
    drop(proxy);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn statement_deadline_is_enforced_through_the_proxy() {
    let db = SharedDatabase::default();
    let config = ServerConfig {
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", db.clone(), config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let proxy = ChaosProxy::start(addr.as_str()).unwrap();
    let mut conn = RemoteConnection::connect(
        &proxy.addr().to_string(),
        ClientConfig {
            statement_deadline: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // Another "statement" wedges the database well past the budget.
    let blocker = db.clone();
    let hold = thread::spawn(move || {
        blocker.with(|_db| thread::sleep(Duration::from_millis(600)));
    });
    thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    let err = conn.execute("SELECT 1").unwrap_err();
    assert!(
        matches!(err, sqlengine::Error::Deadline { .. }),
        "expected the typed deadline error, got {err}"
    );
    assert!(err.is_transient(), "deadlines invite a retry: {err}");
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "the server must give up at the client's deadline"
    );
    hold.join().unwrap();
    assert!(
        conn.execute("SELECT 1").is_ok(),
        "budget refreshes per statement"
    );
    drop(conn);
    drop(proxy);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

// ---------------------------------------------------------------------
// kill + restart mid-run

#[test]
fn server_kill_and_restart_mid_run_is_exactly_once() {
    // Reference: one uninterrupted durable run.
    let base_dir = scratch("restart_baseline");
    let server = DurableServer::start(&base_dir);
    let mut conn = connect(&server.addr);
    let baseline = run_em(&mut conn, &em_config(None));
    drop(conn);
    server.stop();
    let (base_seq, base_committed) = wal_stats(&base_dir);
    let _ = std::fs::remove_dir_all(&base_dir);

    // Chaos run: cut the wire mid-stream, and while the client is
    // backing off, kill the server outright and restart it over the
    // same data directory. WAL recovery plus the session log must
    // reconstruct the dedup window so the client's replayed in-flight
    // statement is reconciled — never re-executed.
    let dir = scratch("restart_chaos");
    let server = DurableServer::start(&dir);
    let proxy = Arc::new(ChaosProxy::start(server.addr.as_str()).unwrap());
    proxy.arm(Direction::ToServer, 25, ChaosAction::CutBefore);

    // A dead port: redials during the restart window are refused
    // (transient) instead of reaching the old server.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };

    let watcher_proxy = Arc::clone(&proxy);
    let restarted = Arc::new(AtomicBool::new(false));
    let restarted_flag = Arc::clone(&restarted);
    let watch_dir = dir.clone();
    let watcher = thread::spawn(move || {
        // Wait for the cut to fire, then take the old server down hard.
        while watcher_proxy.rules_fired() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        watcher_proxy.set_upstream(dead_addr.as_str()).unwrap();
        server.handle.shutdown();
        let gone = Instant::now() + Duration::from_secs(5);
        while server.handle.active_sessions() > 0 && Instant::now() < gone {
            thread::sleep(Duration::from_millis(2));
        }
        server.join.join().unwrap().unwrap();
        // Restart over the same directory: WAL + session-log recovery.
        let revived = DurableServer::start(&watch_dir);
        watcher_proxy.set_upstream(revived.addr.as_str()).unwrap();
        restarted_flag.store(true, Ordering::SeqCst);
        revived
    });

    // Patient backoff: the client must outlast the restart window.
    let retry = RetryPolicy::new(40)
        .with_base_delay(Duration::from_millis(25))
        .with_max_delay(Duration::from_millis(100));
    let mut conn = connect(&proxy.addr().to_string());
    let run = run_em(&mut conn, &em_config(Some(retry)));
    drop(conn);
    let revived = watcher.join().unwrap();
    assert!(
        restarted.load(Ordering::SeqCst),
        "the restart must have happened mid-run"
    );
    assert!(run.retries >= 1, "the client must have ridden out the kill");
    drop(proxy);
    revived.stop();
    assert_same_run("kill+restart", &run, &baseline);
    let (seq, committed) = wal_stats(&dir);
    assert_eq!(
        seq, base_seq,
        "restart run double- or un-applied a mutation"
    );
    assert_eq!(committed, base_committed, "committed WAL counts diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
