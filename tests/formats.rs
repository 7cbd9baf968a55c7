//! Golden bytes: every durable and wire format, pinned by digest.
//!
//! The contract every refactor is held to — embedded = remote = sharded
//! = recovered-after-kill, bit for bit — is a statement about bytes, so
//! this suite pins the bytes themselves: `wal.log` and `snapshot.bin`
//! after a fixed durable script, `sessions.log` after a fixed journal
//! script, and one framed message of every [`Request`] and [`Response`]
//! variant. A digest is `(length, crc32)`; the constants were recorded
//! by running these same test bodies on the commit *before* the byte
//! layer moved behind `sqlengine::storage` (PR 18), so a pass means this
//! build writes what that build wrote, and a build of either side opens
//! the other's files.
//!
//! A change that alters a format on purpose re-records the digests: run
//! the failing test and paste the table it prints.

use std::path::{Path, PathBuf};
use std::time::Duration;

use sqlengine::storage::codec::crc32;
use sqlengine::storage::snapshot::snapshot_path;
use sqlengine::wal::wal_path;
use sqlengine::{Database, Error, Limits, QueryResult, Value, WalRecovery};
use sqlwire::frame::encode_frame;
use sqlwire::session::session_log_path;
use sqlwire::{Request, Response, SessionLog, StmtMeta};

type Digest = (&'static str, usize, u32);

fn digest(name: &'static str, bytes: &[u8]) -> Digest {
    (name, bytes.len(), crc32(bytes))
}

fn file_digest(name: &'static str, path: &Path) -> Digest {
    digest(name, &std::fs::read(path).unwrap())
}

/// Compare against the recorded table; on mismatch print the actual one
/// as a Rust literal, ready to paste.
fn assert_digests(actual: &[Digest], expected: &[Digest]) {
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(name, len, crc)| format!("    ({name:?}, {len}, {crc:#010x}),\n"))
            .collect();
        panic!("format digests differ from the recorded ones; actual:\n{table}");
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlem_formats_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Rows with every awkward cell: NULL, `-0.0`, a NaN with a payload, an
/// empty string and `i64::MIN`.
fn awkward_rows() -> Vec<Vec<Value>> {
    vec![
        vec![Value::Int(i64::MIN), Value::Double(-0.0), Value::str("")],
        vec![
            Value::Int(3),
            Value::Double(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
            Value::Null,
        ],
        vec![Value::Int(4), Value::Null, Value::str("it's")],
    ]
}

const DURABLE: &[Digest] = &[
    ("wal.log before compaction", 550, 0x5bea87d1),
    ("snapshot.bin", 183, 0x33400113),
    ("wal.log after compaction", 10, 0xf9d4224d),
    ("wal.log after one more insert", 107, 0x716d3adf),
];

#[test]
fn wal_and_snapshot_bytes_are_pinned() {
    let dir = tempdir("durable");
    let mut actual = Vec::new();
    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE, s VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO y VALUES (1, 0.5, 'a'), (2, 1.0E-300, 'b''c')")
            .unwrap();
        assert_eq!(db.bulk_insert("y", awkward_rows()).unwrap(), 3);
        db.execute("UPDATE y SET v = v * 2.0 WHERE rid = 2")
            .unwrap();
        // Fails in memory (duplicate key): its frame stays uncommitted.
        assert!(db.execute("INSERT INTO y VALUES (1, 0.0, 'dup')").is_err());
        actual.push(file_digest("wal.log before compaction", &wal_path(&dir)));
        db.compact().unwrap();
        actual.push(file_digest("snapshot.bin", &snapshot_path(&dir)));
        actual.push(file_digest("wal.log after compaction", &wal_path(&dir)));
        db.execute("INSERT INTO y (rid, s) VALUES (5, 'after')")
            .unwrap();
        actual.push(file_digest(
            "wal.log after one more insert",
            &wal_path(&dir),
        ));
    }
    // What was written reads back: snapshot + log replay.
    let mut db = Database::open_durable(&dir).unwrap();
    let r = db
        .execute("SELECT count(*), min(rid), sum(v) FROM y WHERE rid <> 3")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
    assert_eq!(r.rows[0][1], Value::Int(i64::MIN));
    assert_eq!(r.rows[0][2], Value::Double(0.5 + 2.0e-300));
    std::fs::remove_dir_all(&dir).ok();
    assert_digests(&actual, DURABLE);
}

const JOURNAL: &[Digest] = &[
    ("sessions.log before rewrite", 177, 0xaa95577e),
    ("sessions.log after rewrite", 94, 0xb175d5d7),
];

#[test]
fn session_journal_bytes_are_pinned() {
    let dir = tempdir("journal");
    let none = WalRecovery::default();
    let path = session_log_path(&dir);
    let mut actual = Vec::new();
    {
        let (mut log, _, _) = SessionLog::open(&dir, &none).unwrap();
        log.open_token("t1", "a_").unwrap();
        log.open_token("t2", "b_").unwrap();
        log.intent("t1", 0, 10).unwrap();
        log.outcome("t1", 0, true, false).unwrap();
        log.intent("t2", 0, 11).unwrap();
        log.outcome("t2", 0, false, true).unwrap();
        log.close_token("t1").unwrap();
        actual.push(file_digest("sessions.log before rewrite", &path));
        log.rewrite(&[("t2".into(), "b_".into(), Some(3), 5)])
            .unwrap();
        log.intent("t2", 5, 12).unwrap();
        actual.push(file_digest("sessions.log after rewrite", &path));
    }
    let (_log, recovered, max_id) = SessionLog::open(&dir, &none).unwrap();
    assert_eq!(max_id, 2);
    assert_eq!(recovered["t2"].applied, Some(3));
    assert_eq!(recovered["t2"].max_intent, Some(5));
    std::fs::remove_dir_all(&dir).ok();
    assert_digests(&actual, JOURNAL);
}

/// A database whose catalog, metrics and partial aggregates are real
/// engine output rather than hand-built values.
fn wire_database() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE, s VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE w (i BIGINT, w DOUBLE)").unwrap();
    db.execute("INSERT INTO w VALUES (1, 0.25), (2, 0.75)")
        .unwrap();
    db.enable_metrics();
    db.bulk_insert("y", awkward_rows()).unwrap();
    db.execute("SELECT y.rid, w.w FROM y, w WHERE y.rid = w.i + 2")
        .unwrap();
    db.disable_metrics();
    db
}

const REQUESTS: &[Digest] = &[
    ("Hello", 39, 0x6bbda7ac),
    ("Query", 41, 0xd9e07f97),
    ("ExecutePartial", 65, 0x1acb1c94),
    ("Prepare", 62, 0x5a327866),
    ("ExecutePrepared", 33, 0x5d49b47c),
    ("ClearPrepared", 9, 0xa635336f),
    ("BulkInsert", 107, 0x0e9927dd),
    ("TableRows", 14, 0xee998e29),
    ("HasTable", 14, 0x24eb5dc7),
    ("CatalogSnapshot", 9, 0xd841bf3f),
    ("SetMetrics", 10, 0x89c009e1),
    ("MetricsLen", 9, 0x7b877f18),
    ("MetricsSince", 17, 0x329a975b),
    ("NoteRetry", 9, 0x44bd3930),
    ("Cancel", 17, 0xf9e5a010),
    ("Goodbye", 9, 0xe77bf917),
];

#[test]
fn request_frames_are_pinned() {
    let meta = StmtMeta {
        seq: 7,
        deadline_ms: 1500,
    };
    let requests: Vec<(&'static str, Request)> = vec![
        (
            "Hello",
            Request::Hello {
                version: 2,
                auth_token: "sekrit".into(),
                namespace: "run1_".into(),
                resume_token: "t42".into(),
            },
        ),
        (
            "Query",
            Request::Query {
                meta,
                sql: "SELECT 1 + 1".into(),
            },
        ),
        (
            "ExecutePartial",
            Request::ExecutePartial {
                meta,
                sql: "SELECT j, sum(w) FROM gmm GROUP BY j".into(),
            },
        ),
        (
            "Prepare",
            Request::Prepare {
                statements: vec![
                    "DELETE FROM c".into(),
                    "INSERT INTO c VALUES (1)".into(),
                    String::new(),
                ],
            },
        ),
        ("ExecutePrepared", Request::ExecutePrepared { meta, id: 9 }),
        ("ClearPrepared", Request::ClearPrepared),
        (
            "BulkInsert",
            Request::BulkInsert {
                meta: StmtMeta::seq(u64::MAX),
                table: "y".into(),
                rows: awkward_rows(),
            },
        ),
        ("TableRows", Request::TableRows { table: "y".into() }),
        ("HasTable", Request::HasTable { table: "w".into() }),
        ("CatalogSnapshot", Request::CatalogSnapshot),
        ("SetMetrics", Request::SetMetrics { on: true }),
        ("MetricsLen", Request::MetricsLen),
        ("MetricsSince", Request::MetricsSince { from: 42 }),
        ("NoteRetry", Request::NoteRetry),
        ("Cancel", Request::Cancel { session: 3 }),
        ("Goodbye", Request::Goodbye),
    ];
    let actual: Vec<Digest> = requests
        .iter()
        .map(|(name, m)| {
            let payload = m.encode();
            assert_eq!(&Request::decode(&payload).unwrap(), m, "{name}");
            digest(name, &encode_frame(&payload))
        })
        .collect();
    assert_digests(&actual, REQUESTS);
}

const RESPONSES: &[Digest] = &[
    ("HelloAck", 83, 0x38494c3e),
    ("Ok", 9, 0xd65c018c),
    ("Bool", 10, 0x2ff5b412),
    ("Count", 17, 0x892eaa78),
    ("Rows", 115, 0x7cae1e7a),
    ("Rows affected", 25, 0x57d9910f),
    ("Err too long", 26, 0x20d60559),
    ("Err arithmetic", 30, 0x46fe7425),
    ("Err injected", 20, 0x9d854297),
    ("Err net", 46, 0xd90ff252),
    ("Err deadline", 31, 0xd99d1de4),
    ("Err resource", 40, 0x4a22d2c6),
    ("Err remote", 27, 0x80568ecc),
    ("Err other", 33, 0x6f3a9394),
    ("PreparedIds", 37, 0xc0883fca),
    ("PrepareErr", 41, 0x226b6789),
    ("Catalog", 75, 0xa300ccbf),
    ("Metrics", 227, 0xfe6fec0d),
    ("Partial", 222, 0x585c6ecf),
    ("ReplayApplied", 9, 0x888fe8e0),
];

#[test]
fn response_frames_are_pinned() {
    let mut db = wire_database();
    let rows = db.execute("SELECT rid, v, s FROM y ORDER BY rid").unwrap();
    assert_eq!(rows.rows.len(), 3);
    let partial = db
        .execute_partial("SELECT s, count(*), sum(v), avg(v), min(s), max(v) FROM y GROUP BY s")
        .unwrap();
    let mut metrics = db.take_metrics();
    assert_eq!(metrics.len(), 2, "the bulk load and the join");
    for m in &mut metrics {
        m.plan_time = Duration::ZERO;
        m.elapsed = Duration::ZERO;
    }
    let err = |e: Error| Response::Err(e);
    let responses: Vec<(&'static str, Response)> = vec![
        (
            "HelloAck",
            Response::HelloAck {
                version: 2,
                session: 9,
                max_statement_len: 1 << 16,
                limits: Limits::default(),
                description: "sqlem-server".into(),
                resume_token: "t9".into(),
            },
        ),
        ("Ok", Response::Ok),
        ("Bool", Response::Bool(true)),
        ("Count", Response::Count(12345)),
        ("Rows", Response::Rows(rows)),
        ("Rows affected", Response::Rows(QueryResult::affected(1))),
        (
            "Err too long",
            err(Error::StatementTooLong { len: 99, max: 10 }),
        ),
        (
            "Err arithmetic",
            err(Error::Arithmetic("division by zero".into())),
        ),
        (
            "Err injected",
            err(Error::Injected {
                transient: true,
                applied: true,
                statement: 4,
            }),
        ),
        (
            "Err net",
            err(Error::net_transient("read frame", "connection closed")),
        ),
        ("Err deadline", err(Error::deadline("lock wait", 250))),
        (
            "Err resource",
            err(Error::resource_exhausted("join build", 2048, 1024)),
        ),
        ("Err remote", err(Error::Remote("duplicate key".into()))),
        ("Err other", err(Error::UnknownTable("nope".into()))),
        ("PreparedIds", Response::PreparedIds(vec![0, 1, u64::MAX])),
        (
            "PrepareErr",
            Response::PrepareErr {
                index: 1,
                error: Error::UnknownTable("nope".into()),
            },
        ),
        ("Catalog", Response::Catalog(db.symbolic_catalog())),
        ("Metrics", Response::Metrics(metrics)),
        ("Partial", Response::Partial(partial)),
        ("ReplayApplied", Response::ReplayApplied),
    ];
    let actual: Vec<Digest> = responses
        .iter()
        .map(|(name, m)| {
            let payload = m.encode();
            let back = Response::decode(&payload).unwrap();
            assert_eq!(back.encode(), payload, "{name}");
            digest(name, &encode_frame(&payload))
        })
        .collect();
    assert_digests(&actual, RESPONSES);
}
