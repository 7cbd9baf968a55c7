//! End-to-end client/server tests: the paper's two-tier deployment
//! (§1.4) must reproduce the in-process reproduction *bit-exactly*.
//!
//! Each test binds a [`Server`] on an ephemeral port with its accept
//! loop on a thread, drives it through [`RemoteConnection`] (the
//! `SqlExecutor` the whole `sqlem` driver is generic over), and
//! compares against the embedded equivalent:
//!
//! * a full hybrid EM run over the wire — params, llh history and
//!   telemetry identical to the in-process run;
//! * two concurrent clients on one server, namespace-isolated, each
//!   bit-identical to its own embedded run;
//! * wire flakes (idle disconnects, connections dropped at accept)
//!   absorbed by the existing `RetryPolicy` machinery;
//! * a durable server restarted mid-study, with the client resuming
//!   from its in-database checkpoint to the uninterrupted result;
//! * handshake rejection (version, token, namespace, admission) with
//!   the transient/permanent taxonomy the retry policy keys on.

use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{EmSession, RetryPolicy, SqlemConfig, SqlemRun, Strategy};
use sqlengine::{Database, SharedDatabase, SqlExecutor, Value};
use sqlwire::frame::{read_frame, write_frame};
use sqlwire::proto::{same_encoding, Request, Response};
use sqlwire::{
    ClientConfig, RemoteConnection, Server, ServerConfig, ServerHandle, StmtMeta, PROTOCOL_VERSION,
};

// ---------------------------------------------------------------------
// harness

struct TestServer {
    addr: String,
    handle: ServerHandle,
    join: thread::JoinHandle<sqlengine::Result<()>>,
}

impl TestServer {
    fn start(db: SharedDatabase, mut config: ServerConfig) -> TestServer {
        // Tests drop their clients before stopping; a long drain would
        // only ever stretch a failure.
        config.drain_timeout = Duration::from_secs(2);
        let server = Server::bind("127.0.0.1:0", db, config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        TestServer { addr, handle, join }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join.join().unwrap().unwrap();
    }
}

fn connect(addr: &str, namespace: &str) -> RemoteConnection {
    RemoteConnection::connect(
        addr,
        ClientConfig {
            namespace: namespace.to_string(),
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

/// Two well-separated Gaussian blobs around `(c, c)` and `(c+9, c+9)`.
fn blobs(c: f64) -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..40 {
        let t = (i % 5) as f64 * 0.1;
        pts.push(vec![c + t, c - t]);
        pts.push(vec![c + 9.0 + t, c + 9.0 - t]);
    }
    pts
}

fn blob_init(c: f64) -> GmmParams {
    GmmParams::new(
        vec![vec![c + 2.0, c + 2.0], vec![c + 7.0, c + 7.0]],
        vec![8.0, 8.0],
        vec![0.5, 0.5],
    )
}

fn run_em<E: SqlExecutor>(
    db: &mut E,
    cfg: &SqlemConfig,
    points: &[Vec<f64>],
    init: &GmmParams,
    telemetry: bool,
) -> SqlemRun {
    let mut session = EmSession::create(db, cfg, 2).unwrap();
    session.load_points(points).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    if telemetry {
        session.enable_telemetry().unwrap();
    }
    session.run().unwrap()
}

// ---------------------------------------------------------------------
// the tentpole: remote == embedded, bit for bit

#[test]
fn remote_hybrid_run_is_bit_identical_to_in_process() {
    let cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-9)
        .with_max_iterations(12)
        .with_prefix("r1_");
    let (points, init) = (blobs(0.0), blob_init(0.0));

    let baseline = run_em(&mut Database::new(), &cfg, &points, &init, true);

    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let mut conn = connect(&server.addr, "r1_");
    let remote = run_em(&mut conn, &cfg, &points, &init, true);
    drop(conn);
    server.stop();

    assert_eq!(remote.params, baseline.params, "final model diverged");
    assert_eq!(remote.llh_history, baseline.llh_history, "llh diverged");
    assert_eq!(remote.iterations, baseline.iterations);
    assert_eq!(remote.outcome, baseline.outcome);

    // Telemetry passthrough: the remote client pulls the *server's*
    // per-statement metrics, so the cost-model counters (which are
    // exact, unlike wall-clock) must agree entry for entry.
    assert_eq!(
        remote.iteration_reports.len(),
        baseline.iteration_reports.len()
    );
    for (r, b) in remote
        .iteration_reports
        .iter()
        .zip(&baseline.iteration_reports)
    {
        assert_eq!(r.n_scans, b.n_scans, "iteration {}", r.iteration);
        assert_eq!(r.pn_scans, b.pn_scans, "iteration {}", r.iteration);
        assert_eq!(
            r.temp_rows_materialized, b.temp_rows_materialized,
            "iteration {}",
            r.iteration
        );
    }
}

#[test]
fn doubles_cross_the_wire_bit_exact() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let mut conn = connect(&server.addr, "");
    conn.execute("CREATE TABLE bits (i BIGINT PRIMARY KEY, v DOUBLE)")
        .unwrap();
    let specials = [
        f64::MIN_POSITIVE,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324, // smallest subnormal
        -1234.5678901234567,
    ];
    let rows: Vec<Vec<Value>> = specials
        .iter()
        .enumerate()
        .map(|(i, &v)| vec![Value::Int(i as i64), Value::Double(v)])
        .collect();
    assert_eq!(conn.bulk_insert_rows("bits", rows).unwrap(), specials.len());
    let back = conn.execute("SELECT v FROM bits ORDER BY i").unwrap();
    for (row, &expect) in back.rows.iter().zip(&specials) {
        let Value::Double(got) = row[0] else {
            panic!("expected a double back, got {:?}", row[0]);
        };
        assert_eq!(got.to_bits(), expect.to_bits(), "{expect} was altered");
    }
    drop(conn);
    server.stop();
}

// ---------------------------------------------------------------------
// concurrency: two clients, one server

#[test]
fn concurrent_clients_match_their_embedded_runs() {
    let cfg_a = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-9)
        .with_max_iterations(10)
        .with_prefix("ca_");
    let cfg_b = cfg_a.clone().with_prefix("cb_");
    let (points_a, init_a) = (blobs(0.0), blob_init(0.0));
    let (points_b, init_b) = (blobs(3.5), blob_init(3.5));

    let base_a = run_em(&mut Database::new(), &cfg_a, &points_a, &init_a, false);
    let base_b = run_em(&mut Database::new(), &cfg_b, &points_b, &init_b, false);

    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let addr_a = server.addr.clone();
    let addr_b = server.addr.clone();
    let ta = thread::spawn(move || {
        let mut conn = connect(&addr_a, "ca_");
        run_em(&mut conn, &cfg_a, &points_a, &init_a, false)
    });
    let tb = thread::spawn(move || {
        let mut conn = connect(&addr_b, "cb_");
        run_em(&mut conn, &cfg_b, &points_b, &init_b, false)
    });
    let run_a = ta.join().unwrap();
    let run_b = tb.join().unwrap();
    server.stop();

    assert_eq!(run_a.params, base_a.params, "client A diverged");
    assert_eq!(run_a.llh_history, base_a.llh_history, "client A llh");
    assert_eq!(run_b.params, base_b.params, "client B diverged");
    assert_eq!(run_b.llh_history, base_b.llh_history, "client B llh");
}

// ---------------------------------------------------------------------
// wire flakes and the retry policy

#[test]
fn dropped_first_dial_is_redialled() {
    // The server drops the very first accepted connection on the floor:
    // the handshake dies like any cut frame — a transient wire failure —
    // and `connect` redials instead of giving up on its first attempt.
    let config = ServerConfig {
        drop_nth_connection: Some(1),
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let mut conn = RemoteConnection::connect(&server.addr, ClientConfig::default())
        .expect("a dropped first dial is redialled");
    assert!(!conn.has_table("nope").unwrap());
    drop(conn);
    server.stop();
}

#[test]
fn retry_policy_rides_out_idle_disconnect_and_dropped_redial() {
    const ITERS: usize = 5;
    let cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(ITERS)
        .with_prefix("rf_")
        .with_retry(RetryPolicy::immediate(4));
    let (points, init) = (blobs(0.0), blob_init(0.0));

    // Baseline: the same manual iteration loop, embedded.
    let mut base_db = Database::new();
    let mut base = EmSession::create(&mut base_db, &cfg, 2).unwrap();
    base.load_points(&points).unwrap();
    base.initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    let base_llh: Vec<f64> = (0..ITERS).map(|_| base.iterate_once().unwrap()).collect();
    let base_params = base.params().unwrap();

    // Remote: the server hangs up on sessions idle for 100 ms AND drops
    // the second accepted connection (the re-dial) on the floor, so the
    // client needs *two* transient recoveries to land iteration 2.
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        drop_nth_connection: Some(2),
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let mut conn = connect(&server.addr, "rf_");
    let mut session = EmSession::create(&mut conn, &cfg, 2).unwrap();
    session.load_points(&points).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    let mut llh = Vec::new();
    for i in 0..ITERS {
        if i == 1 {
            // Outlive the server's idle timeout: the next statement
            // finds a dead stream, and the first re-dial is dropped.
            thread::sleep(Duration::from_millis(300));
        }
        llh.push(session.iterate_once().unwrap());
    }
    let params = session.params().unwrap();
    assert!(session.retries() >= 1, "the disconnect must cost a retry");
    drop(session);
    drop(conn);
    server.stop();

    assert_eq!(llh, base_llh, "recovered run must match uninterrupted");
    assert_eq!(params, base_params);
}

// ---------------------------------------------------------------------
// durability composition: restart the server, resume the study

#[test]
fn durable_server_restart_resumes_from_checkpoint() {
    const FULL: usize = 5;
    let dir = std::env::temp_dir().join("sqlwire_restart_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap().to_string();

    let (points, init) = (blobs(0.0), blob_init(0.0));
    let cfg_full = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(FULL)
        .with_prefix("dr_")
        .with_checkpoints();
    let baseline = run_em(&mut Database::new(), &cfg_full, &points, &init, false);
    // The tiny dataset may hit an exact fixed point before the cap; all
    // that matters is that phase 1's cap of 2 leaves work outstanding.
    assert!(baseline.iterations > 2);

    // Phase 1: a durable server; the client completes 2 of 5 iterations
    // (checkpointing each one) before the server goes away entirely.
    let cfg_partial = cfg_full.clone().with_max_iterations(2);
    let db = Database::open_durable(&dir).unwrap();
    let server = TestServer::start(SharedDatabase::new(db), ServerConfig::default());
    let mut conn = connect(&server.addr, "dr_");
    let partial = run_em(&mut conn, &cfg_partial, &points, &init, false);
    assert_eq!(partial.iterations, 2);
    drop(conn);
    server.stop();

    // Phase 2: the database directory is all that survived. A restarted
    // server replays the WAL; a fresh client finds the checkpoint and
    // finishes the study — bit-identical to the uninterrupted run.
    let db = Database::open_durable(&dir).unwrap();
    let server = TestServer::start(SharedDatabase::new(db), ServerConfig::default());
    let mut conn = connect(&server.addr, "dr_");
    let mut session = EmSession::create(&mut conn, &cfg_full, 2).unwrap();
    session.load_points(&points).unwrap();
    let done = session
        .resume_from_checkpoint()
        .unwrap()
        .expect("the restarted server must still hold the checkpoint");
    assert_eq!(done, 2, "both completed iterations were checkpointed");
    let resumed = session.run().unwrap();
    drop(session);
    drop(conn);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(resumed.llh_history, baseline.llh_history, "resumed llh");
    assert_eq!(resumed.params, baseline.params, "resumed final model");
}

// ---------------------------------------------------------------------
// handshake, admission, namespaces, cancellation

#[test]
fn protocol_version_mismatch_is_rejected_permanently() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    let hello = Request::Hello {
        version: 9999,
        auth_token: String::new(),
        namespace: String::new(),
        resume_token: String::new(),
    };
    write_frame(&mut stream, &hello.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap()).unwrap();
    let Response::Err(e) = resp else {
        panic!("expected a handshake rejection, got {resp:?}");
    };
    assert!(!e.is_transient(), "version skew never fixes itself: {e}");
    assert!(e.to_string().contains("version mismatch"), "{e}");
    drop(stream);
    server.stop();
}

#[test]
fn auth_token_mismatch_is_rejected_permanently() {
    let config = ServerConfig {
        auth_token: "sekrit".to_string(),
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let err = RemoteConnection::connect(
        &server.addr,
        ClientConfig {
            auth_token: "wrong".to_string(),
            ..ClientConfig::default()
        },
    )
    .unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert!(err.to_string().contains("auth token"), "{err}");
    let ok = RemoteConnection::connect(
        &server.addr,
        ClientConfig {
            auth_token: "sekrit".to_string(),
            ..ClientConfig::default()
        },
    );
    assert!(ok.is_ok(), "the right token must get in");
    drop(ok);
    server.stop();
}

#[test]
fn held_namespace_is_rejected_transiently_until_released() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let conn1 = connect(&server.addr, "ns_");
    let err = RemoteConnection::connect(
        &server.addr,
        ClientConfig {
            namespace: "ns_".to_string(),
            ..ClientConfig::default()
        },
    )
    .unwrap_err();
    assert!(
        err.is_transient(),
        "a held namespace frees on disconnect: {err}"
    );
    assert!(err.to_string().contains("ns_"), "{err}");
    drop(conn1); // orderly goodbye frees the namespace
                 // The release is processed by the server session thread; give it a
                 // moment rather than asserting on a race.
    let mut attempt = None;
    for _ in 0..50 {
        match RemoteConnection::connect(
            &server.addr,
            ClientConfig {
                namespace: "ns_".to_string(),
                ..ClientConfig::default()
            },
        ) {
            Ok(c) => {
                attempt = Some(c);
                break;
            }
            Err(e) if e.is_transient() => thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("unexpected permanent rejection: {e}"),
        }
    }
    assert!(attempt.is_some(), "released namespace must be claimable");
    drop(attempt);
    server.stop();
}

#[test]
fn admission_control_rejects_transiently_over_capacity() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let conn1 = connect(&server.addr, "");
    let err = RemoteConnection::connect(&server.addr, ClientConfig::default()).unwrap_err();
    assert!(
        err.is_transient(),
        "backpressure must invite a retry: {err}"
    );
    assert!(err.to_string().contains("capacity"), "{err}");
    drop(conn1);
    server.stop();
}

#[test]
fn shed_connections_carry_retry_after_and_are_counted() {
    let config = ServerConfig {
        max_connections: 1,
        shed_retry_after: Duration::from_millis(40),
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let conn = connect(&server.addr, "");
    for _ in 0..3 {
        let err = RemoteConnection::connect(&server.addr, ClientConfig::default()).unwrap_err();
        assert!(err.is_transient(), "shedding invites a retry: {err}");
        assert!(err.to_string().contains("retry after 40 ms"), "{err}");
    }
    assert_eq!(server.handle.shed_count(), 3, "every shed must be counted");

    // Releasing the slot readmits the next dial (the session teardown
    // races the redial, so poll briefly).
    drop(conn);
    let mut readmitted = None;
    for _ in 0..100 {
        match RemoteConnection::connect(&server.addr, ClientConfig::default()) {
            Ok(c) => {
                readmitted = Some(c);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut conn = readmitted.expect("slot never freed after disconnect");
    assert!(conn.execute("SELECT 1").is_ok());
    drop(conn);
    server.stop();
}

#[test]
fn session_memory_budget_relays_typed_exhaustion() {
    let config = ServerConfig {
        memory_budget: Some(64 * 1024),
        session_memory_budget: Some(256),
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let mut conn = connect(&server.addr, "");
    conn.execute("CREATE TABLE big (a BIGINT PRIMARY KEY, b DOUBLE)")
        .unwrap();

    // Twenty staged rows blow the 256-byte session ceiling; the typed
    // error crosses the wire intact and stays transient backpressure.
    let rows: Vec<String> = (0..20).map(|i| format!("({i}, {i}.5)")).collect();
    let err = conn
        .execute(&format!("INSERT INTO big VALUES {}", rows.join(", ")))
        .unwrap_err();
    assert!(
        matches!(err, sqlengine::Error::ResourceExhausted { .. }),
        "expected typed exhaustion over the wire, got: {err}"
    );
    assert!(err.is_transient(), "exhaustion is backpressure: {err}");

    // Charges release at statement end: right-sized statements still fit.
    conn.execute("INSERT INTO big VALUES (1, 1.5)").unwrap();
    let r = conn.execute("SELECT count(*) FROM big").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    conn.execute("DROP TABLE big").unwrap();

    // The global pool saw the session's charges: the gauge is real.
    let peak = server.handle.peak_memory_bytes();
    assert!(peak.is_some_and(|p| p > 0), "global peak gauge: {peak:?}");
    drop(conn);
    server.stop();
}

#[test]
fn cancel_kills_the_target_session() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let mut victim = connect(&server.addr, "");
    let mut killer = connect(&server.addr, "");
    assert!(victim.execute("SELECT 1").is_ok());

    assert!(killer.cancel_session(victim.session_id()).unwrap());
    let err = victim.execute("SELECT 1").unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert!(err.to_string().contains("cancelled"), "{err}");

    // Cancelling a session that never existed reports false.
    assert!(!killer.cancel_session(424242).unwrap());
    drop(victim);
    drop(killer);
    server.stop();
}

#[test]
fn statement_lock_timeout_is_transient_backpressure() {
    let shared = SharedDatabase::default();
    let config = ServerConfig {
        lock_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let server = TestServer::start(shared.clone(), config);
    let mut conn = connect(&server.addr, "");

    // Hold the database lock longer than the server's bounded wait.
    let blocker = shared.clone();
    let hold = thread::spawn(move || {
        blocker.with(|_db| thread::sleep(Duration::from_millis(400)));
    });
    thread::sleep(Duration::from_millis(50)); // let the blocker win the lock
    let err = conn.execute("SELECT 1").unwrap_err();
    assert!(err.is_transient(), "a busy server invites a retry: {err}");
    assert!(err.to_string().contains("timeout"), "{err}");
    hold.join().unwrap();

    // Once the lock frees, the same connection works again.
    assert!(conn.execute("SELECT 1").is_ok());
    drop(conn);
    server.stop();
}

// ---------------------------------------------------------------------
// exactly-once: idempotency keys, resume tokens, deadlines

/// Raw-wire handshake helper: returns the stream and the issued token.
fn raw_handshake(addr: &str, namespace: &str, resume_token: &str) -> (TcpStream, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        auth_token: String::new(),
        namespace: namespace.to_string(),
        resume_token: resume_token.to_string(),
    };
    write_frame(&mut stream, &hello.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap()).unwrap();
    let Response::HelloAck { resume_token, .. } = resp else {
        panic!("expected HelloAck, got {resp:?}");
    };
    (stream, resume_token)
}

fn raw_roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.encode()).unwrap();
    Response::decode(&read_frame(stream).unwrap()).unwrap()
}

#[test]
fn duplicate_delivery_is_acked_from_the_reply_cache() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let (mut stream, token) = raw_handshake(&server.addr, "", "");
    assert!(!token.is_empty(), "the server must issue a resume token");

    let create = Request::Query {
        meta: StmtMeta::seq(0),
        sql: "CREATE TABLE dup (i BIGINT PRIMARY KEY)".into(),
    };
    assert!(matches!(
        raw_roundtrip(&mut stream, &create),
        Response::Rows(_)
    ));

    // Deliver the same keyed INSERT twice (what a duplicating network
    // or a replaying client produces). The second must be acked from
    // the reply cache — bit-identical — and never re-executed: a
    // re-execution would raise a duplicate-key error.
    let insert = Request::Query {
        meta: StmtMeta::seq(1),
        sql: "INSERT INTO dup VALUES (1)".into(),
    };
    let first = raw_roundtrip(&mut stream, &insert);
    assert!(matches!(first, Response::Rows(_)), "{first:?}");
    let second = raw_roundtrip(&mut stream, &insert);
    assert!(
        same_encoding(&first, &second),
        "replay must be bit-identical: {first:?} vs {second:?}"
    );

    // Stale sequence number (the CREATE) after newer traffic: still
    // acked from the window, not re-executed (which would raise a
    // duplicate-table error).
    let stale = raw_roundtrip(&mut stream, &create);
    assert!(matches!(stale, Response::Rows(_)), "{stale:?}");

    // Exactly one row made it in.
    let count = raw_roundtrip(
        &mut stream,
        &Request::TableRows {
            table: "dup".into(),
        },
    );
    let Response::Count(n) = count else {
        panic!("expected a count, got {count:?}");
    };
    assert_eq!(n, 1, "the duplicate delivery must not double-insert");
    drop(stream);
    server.stop();
}

#[test]
fn error_replies_replay_identically_from_the_cache() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let (mut stream, _token) = raw_handshake(&server.addr, "", "");
    let bad = Request::Query {
        meta: StmtMeta::seq(0),
        sql: "SELECT 1 FROM no_such_table".into(),
    };
    let first = raw_roundtrip(&mut stream, &bad);
    assert!(matches!(first, Response::Err(_)), "{first:?}");
    let second = raw_roundtrip(&mut stream, &bad);
    assert!(
        same_encoding(&first, &second),
        "a replayed failure must reproduce the same error"
    );
    drop(stream);
    server.stop();
}

#[test]
fn resume_token_survives_reconnect_and_keeps_the_dedup_window() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());

    // Session 1: issue a token, execute a keyed statement.
    let (stream1, token) = raw_handshake(&server.addr, "rt_", "");
    let mut s1 = stream1;
    let create = Request::Query {
        meta: StmtMeta::seq(0),
        sql: "CREATE TABLE rt_t (i BIGINT PRIMARY KEY)".into(),
    };
    assert!(matches!(raw_roundtrip(&mut s1, &create), Response::Rows(_)));

    // Session 2 presents the token WITHOUT an orderly goodbye on
    // session 1: the server must cancel the zombie, reattach the
    // namespace, and keep the dedup window — replaying seq 0 is acked
    // from the cache instead of raising a duplicate-table error.
    let (mut s2, token2) = raw_handshake(&server.addr, "rt_", &token);
    assert_eq!(token2, token, "reattach echoes the presented token");
    let replay = raw_roundtrip(&mut s2, &create);
    assert!(
        matches!(replay, Response::Rows(_)),
        "replay after reconnect must be served, got {replay:?}"
    );
    drop(s1);
    drop(s2);
    server.stop();
}

#[test]
fn resume_token_bound_to_other_namespace_is_rejected() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let (_s1, token) = raw_handshake(&server.addr, "nsa_", "");
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        auth_token: String::new(),
        namespace: "nsb_".to_string(),
        resume_token: token,
    };
    write_frame(&mut stream, &hello.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap()).unwrap();
    let Response::Err(e) = resp else {
        panic!("expected a rejection, got {resp:?}");
    };
    assert!(!e.is_transient(), "namespace/token mismatch is permanent");
    drop(stream);
    server.stop();
}

#[test]
fn client_replays_in_flight_statement_after_idle_disconnect() {
    // The server hangs up idle sessions after 100 ms. The client's
    // first post-sleep statement hits a dead wire (transient error);
    // the *retried* statement replays under the same sequence number
    // through the resumed token — observable as: no duplicate-key
    // error, exactly one row, same resume token.
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = TestServer::start(SharedDatabase::default(), config);
    let mut conn = connect(&server.addr, "ri_");
    conn.execute("CREATE TABLE ri_t (i BIGINT PRIMARY KEY)")
        .unwrap();
    let token_before = conn.resume_token().to_string();
    thread::sleep(Duration::from_millis(300));
    // Dead wire: the first attempt fails transiently…
    let err = conn.execute("INSERT INTO ri_t VALUES (1)").unwrap_err();
    assert!(err.is_transient(), "{err}");
    // …and the bare retry succeeds (replay or fresh execution — either
    // way exactly once).
    conn.execute("INSERT INTO ri_t VALUES (1)").unwrap();
    assert_eq!(conn.table_rows("ri_t").unwrap(), 1);
    assert_eq!(conn.resume_token(), token_before, "token is stable");
    drop(conn);
    server.stop();
}

#[test]
fn statement_deadline_surfaces_as_typed_transient_error() {
    let shared = SharedDatabase::default();
    let server = TestServer::start(shared.clone(), ServerConfig::default());
    let mut conn = RemoteConnection::connect(
        &server.addr,
        ClientConfig {
            statement_deadline: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // Hold the database lock well past the client's budget: the server
    // must give up at the *deadline* (not its own 30 s lock timeout)
    // and answer with the typed deadline error.
    let blocker = shared.clone();
    let hold = thread::spawn(move || {
        blocker.with(|_db| thread::sleep(Duration::from_millis(600)));
    });
    thread::sleep(Duration::from_millis(50)); // let the blocker win the lock
    let start = std::time::Instant::now();
    let err = conn.execute("SELECT 1").unwrap_err();
    let waited = start.elapsed();
    assert!(
        matches!(err, sqlengine::Error::Deadline { .. }),
        "expected a typed deadline error, got {err}"
    );
    assert!(err.is_transient(), "deadline errors invite a retry: {err}");
    assert!(err.to_string().contains("100"), "budget in message: {err}");
    assert!(
        waited < Duration::from_millis(500),
        "must give up at the deadline, waited {waited:?}"
    );
    hold.join().unwrap();

    // With the lock free the same statement fits the budget again.
    assert!(conn.execute("SELECT 1").is_ok());
    drop(conn);
    server.stop();
}

// ---------------------------------------------------------------------
// accept and drain

#[test]
fn a_new_connection_is_served_without_waiting_out_a_poll() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    let mut cycles: Vec<Duration> = (0..31)
        .map(|_| {
            let t0 = std::time::Instant::now();
            drop(RemoteConnection::connect(server.addr.as_str(), ClientConfig::default()).unwrap());
            t0.elapsed()
        })
        .collect();
    cycles.sort();
    // A 5 ms accept poll made every cycle wait out most of a sleep.
    assert!(cycles[15] < Duration::from_micros(2500), "{cycles:?}");
    server.stop();
}

#[test]
fn an_idle_server_stops_as_soon_as_it_is_told() {
    let server = TestServer::start(SharedDatabase::default(), ServerConfig::default());
    // Let the accept loop block before it is woken.
    thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    server.stop();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}
