//! The concurrent SQL server: a TCP accept loop wrapping one
//! [`SharedDatabase`].
//!
//! This is the "DBMS side" of the paper's two-tier deployment (§1.4):
//! SQLEM's client generates SQL on a workstation and submits it over
//! the network; all heavy lifting happens where the data lives. Each
//! accepted connection becomes one *session* on its own thread:
//!
//! 1. **Admission** — the accept loop reserves a session slot with a
//!    capped atomic update *before* spawning the session thread, so
//!    live sessions can never exceed [`ServerConfig::max_connections`],
//!    even momentarily. An over-capacity connection is *shed*: its
//!    handshake is answered with a transient error carrying a
//!    retry-after hint ([`ServerConfig::shed_retry_after`]) and the
//!    connection is closed (backpressure: a client retry policy will
//!    wait and reconnect). Shed connections are counted
//!    ([`ServerHandle::shed_count`]).
//! 2. **Handshake** — the client's [`Request::Hello`] carries the
//!    protocol version, a shared-secret token and the work-table
//!    namespace it wants, plus an optional *resume token* from an
//!    earlier session. Version and token mismatches are rejected
//!    *permanently*; a namespace another live session owns is rejected
//!    transiently (it frees on that session's disconnect). A known
//!    resume token reattaches the client to its namespace and its
//!    exactly-once dedup window — cancelling any zombie session still
//!    holding the token.
//! 3. **Statements** — executed under the shared database lock with a
//!    bounded wait ([`ServerConfig::lock_timeout`]): a session that
//!    cannot get the lock in time gets a transient statement-timeout
//!    error instead of wedging behind a long-running peer forever.
//!    Statement-bearing requests carry a [`StmtMeta`] idempotency key;
//!    the server deduplicates replays through a per-token
//!    [`ReplyCache`], and — when the database is durable — journals
//!    intent/outcome records to a sidecar session log so dedup
//!    survives `kill -9` (see [`crate::session`]). Requests may also
//!    carry a deadline budget, enforced against both the lock wait and
//!    the execution path and surfaced as the typed, transient
//!    [`sqlengine::Error::Deadline`].
//! 4. **Idle timeout** — a session that sends nothing for
//!    [`ServerConfig::idle_timeout`] is closed and its namespace freed.
//! 5. **Teardown** — orderly ([`Request::Goodbye`]) or not, the session
//!    unregisters its prepared statements and releases its namespace.
//!    An orderly goodbye also retires the resume token; a torn
//!    connection keeps it alive for reattach.
//!
//! Shutdown ([`ServerHandle::shutdown`]) stops accepting and *drains*:
//! live sessions keep working until they disconnect or the drain
//! timeout passes. Composability with the durability layer is free —
//! hand [`Server::bind`] a `SharedDatabase` whose inner database was
//! opened with [`Database::open_durable`](sqlengine::Database::open_durable)
//! and every mutation is WAL-logged exactly as in-process; the session
//! log is created next to the WAL automatically.

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sqlengine::{Database, Error, MemoryBudget, Result, SharedDatabase, SqlExecutor, WalRecovery};

use crate::frame::{read_frame, write_frame};
use crate::proto::{Request, Response, StmtMeta, PROTOCOL_VERSION};
use crate::session::{format_token, token_ordinal, Admit, ReplyCache, SessionLog};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further handshakes are rejected
    /// with a transient error (admission control / backpressure).
    pub max_connections: usize,
    /// Shared-secret token clients must present (empty = open server).
    pub auth_token: String,
    /// Close a session that sends nothing for this long.
    pub idle_timeout: Duration,
    /// Bounded wait for the database lock per statement; beyond it the
    /// statement fails with a transient timeout error.
    pub lock_timeout: Duration,
    /// How long [`ServerHandle::shutdown`] waits for live sessions to
    /// finish before the accept loop returns anyway.
    pub drain_timeout: Duration,
    /// Chaos hook: drop the nth accepted connection (1-based) on the
    /// floor without a single response byte — deterministic
    /// connection-failure injection for retry tests.
    pub drop_nth_connection: Option<u64>,
    /// Global working-memory budget in bytes, shared by every session:
    /// an allocating statement that would push the server past this
    /// fails with the typed transient
    /// [`sqlengine::Error::ResourceExhausted`]. `None` = unbounded.
    pub memory_budget: Option<u64>,
    /// Per-session working-memory budget in bytes, chained under the
    /// global one when both are set
    /// ([`sqlengine::MemoryBudget::child_of`]): one greedy session hits
    /// its own ceiling before it can starve the shared pool. `None` =
    /// only the global budget (if any) applies.
    pub session_memory_budget: Option<u64>,
    /// Retry-after hint carried in the backpressure error a shed
    /// (over-capacity) connection receives.
    pub shed_retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 32,
            auth_token: String::new(),
            idle_timeout: Duration::from_secs(300),
            lock_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            drop_nth_connection: None,
            memory_budget: None,
            session_memory_budget: None,
            shed_retry_after: Duration::from_millis(100),
        }
    }
}

/// One live session's registry entry.
struct SessionEntry {
    /// Namespace the session claimed exclusively ("" = none).
    namespace: String,
    /// The session's resume token (used for zombie takeover).
    token: String,
    /// Set by [`Request::Cancel`]; the session fails its next request.
    cancelled: Arc<AtomicBool>,
}

/// Exactly-once state for one resume token. Lives in the dedup
/// registry, which outlives individual connections: a reconnect
/// presenting the token reattaches to this entry.
struct DedupEntry {
    /// Namespace the token is bound to.
    namespace: String,
    /// Sequence window + cached replies + applied watermark.
    cache: ReplyCache,
}

/// State shared between the accept loop, session threads and handles.
struct ServerState {
    /// The listener's address, which [`ServerHandle::shutdown`] dials
    /// to wake the blocking accept.
    addr: SocketAddr,
    shutdown: AtomicBool,
    active: AtomicUsize,
    /// Notified, under its mutex, when the last live session ends: what
    /// the drain waits on.
    idle: (Mutex<()>, Condvar),
    accepted: AtomicU64,
    /// Connections shed at admission (over capacity).
    shed: AtomicU64,
    /// Global memory budget every session budget chains under.
    global_budget: Option<MemoryBudget>,
    next_session: AtomicU64,
    next_token: AtomicU64,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    /// Resume-token → dedup window. All access to the session log is
    /// serialized under this lock (lock order: dedup → db → log).
    dedup: Mutex<HashMap<String, DedupEntry>>,
    /// Durable sidecar journal; `None` for in-memory databases.
    session_log: Option<Mutex<SessionLog>>,
}

/// Control handle for a running [`Server`] (cloneable across threads).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Stop accepting connections and let the accept loop drain.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`: one dial wakes it to see
        // the flag. An unspecified bind address is dialled on loopback.
        let mut addr = self.state.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }

    /// Number of currently live sessions.
    pub fn active_sessions(&self) -> usize {
        self.state.active.load(Ordering::SeqCst)
    }

    /// Connections shed at admission so far (load-shedding telemetry;
    /// the overload bench reports this next to throughput).
    pub fn shed_count(&self) -> u64 {
        self.state.shed.load(Ordering::SeqCst)
    }

    /// Peak bytes charged against the global memory budget, if one is
    /// configured ([`ServerConfig::memory_budget`]).
    pub fn peak_memory_bytes(&self) -> Option<u64> {
        self.state.global_budget.as_ref().map(MemoryBudget::peak)
    }
}

/// A bound, not-yet-running server. Call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    db: SharedDatabase,
    config: ServerConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// For a durable database this opens (or creates) the session log
    /// next to the WAL and rebuilds the exactly-once dedup state of
    /// every session the previous incarnation left behind, correlating
    /// unresolved intents with what WAL recovery found.
    pub fn bind(addr: &str, db: SharedDatabase, config: ServerConfig) -> Result<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::net_permanent("bind", e.to_string()))?;
        let durable: Option<(std::path::PathBuf, WalRecovery)> =
            db.with(|d| match (d.data_dir(), d.wal_recovery_info()) {
                (Some(dir), Some(rec)) => Some((dir.to_path_buf(), rec.clone())),
                _ => None,
            });
        let mut dedup = HashMap::new();
        let mut max_token = 0u64;
        let session_log = match durable {
            Some((dir, recovery)) => {
                let (log, recovered, max_id) = SessionLog::open(&dir, &recovery)?;
                max_token = max_id;
                for (token, s) in recovered {
                    dedup.insert(
                        token,
                        DedupEntry {
                            namespace: s.namespace,
                            cache: ReplyCache::recovered(
                                crate::session::DEFAULT_REPLY_WINDOW,
                                s.applied,
                                s.max_intent,
                            ),
                        },
                    );
                }
                Some(Mutex::new(log))
            }
            None => None,
        };
        let global_budget = config.memory_budget.map(MemoryBudget::new);
        let addr = listener
            .local_addr()
            .map_err(|e| Error::net_permanent("local_addr", e.to_string()))?;
        Ok(Server {
            listener,
            db,
            config,
            state: Arc::new(ServerState {
                addr,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                idle: (Mutex::new(()), Condvar::new()),
                accepted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                global_budget,
                next_session: AtomicU64::new(1),
                next_token: AtomicU64::new(max_token + 1),
                sessions: Mutex::new(HashMap::new()),
                dedup: Mutex::new(dedup),
                session_log,
            }),
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.state.addr)
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until [`ServerHandle::shutdown`], then drain and return.
    /// The accept blocks; `shutdown` dials the listener to wake it, and
    /// the drain waits on the condition variable the last session
    /// signals as it ends.
    pub fn run(self) -> Result<()> {
        loop {
            let accepted = self.listener.accept();
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let n = self.state.accepted.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.config.drop_nth_connection == Some(n) {
                        drop(stream); // chaos: simulate a mid-dial crash
                        continue;
                    }
                    let db = self.db.clone();
                    let config = self.config.clone();
                    let state = Arc::clone(&self.state);
                    // Admission: reserve a session slot with a capped
                    // compare-and-swap *before* spawning, so `active`
                    // can never exceed `max_connections`, even
                    // transiently. (It used to be bumped optimistically
                    // and checked later, so a burst of dials overshot
                    // the cap for the length of a handshake.)
                    let admitted = state
                        .active
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
                            (live < config.max_connections).then_some(live + 1)
                        })
                        .is_ok();
                    if !admitted {
                        state.shed.fetch_add(1, Ordering::SeqCst);
                        std::thread::spawn(move || shed_session(stream, &config));
                        continue;
                    }
                    std::thread::spawn(move || {
                        // The session outcome is reported to the peer over
                        // the wire; a torn connection has nowhere to report.
                        let _ = serve_session(stream, &db, &config, &state);
                        if state.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                            let (lock, idle) = &state.idle;
                            let _held = lock.lock().unwrap_or_else(|e| e.into_inner());
                            idle.notify_all();
                        }
                    });
                }
                Err(e) => return Err(Error::net_permanent("accept", e.to_string())),
            }
        }
        // Drain: no new sessions; wait for the live ones.
        let (lock, idle) = &self.state.idle;
        let held = lock.lock().unwrap_or_else(|e| e.into_inner());
        let live = |_: &mut ()| self.state.active.load(Ordering::SeqCst) > 0;
        let _ = idle.wait_timeout_while(held, self.config.drain_timeout, live);
        Ok(())
    }
}

/// Shed one over-capacity connection: read its Hello (so the reply is
/// a well-formed answer to a well-formed question), respond with a
/// transient backpressure error carrying the retry-after hint, close.
/// The shed path never touches the database or the session registry.
fn shed_session(mut stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_nodelay(true);
    // A shed connection must not occupy the shedding thread for long;
    // the retry-after hint doubles as the read patience.
    let _ = stream.set_read_timeout(Some(config.shed_retry_after.max(Duration::from_millis(10))));
    if read_frame(&mut stream).is_err() {
        return;
    }
    let e = Error::net_transient(
        "handshake",
        format!(
            "server at capacity ({} sessions); retry after {} ms",
            config.max_connections,
            config.shed_retry_after.as_millis()
        ),
    );
    let _ = write_frame(&mut stream, &Response::Err(e).encode());
}

/// Receive the handshake, register the session, then serve requests
/// until goodbye / disconnect / idle timeout / cancellation.
fn serve_session(
    mut stream: TcpStream,
    db: &SharedDatabase,
    config: &ServerConfig,
    state: &ServerState,
) -> Result<()> {
    stream
        .set_nodelay(true)
        .map_err(|e| Error::net_permanent("set_nodelay", e.to_string()))?;
    stream
        .set_read_timeout(Some(config.idle_timeout))
        .map_err(|e| Error::net_permanent("set_read_timeout", e.to_string()))?;

    // ---- handshake -------------------------------------------------
    let hello = Request::decode(&read_frame(&mut stream)?)?;
    let Request::Hello {
        version,
        auth_token,
        namespace,
        resume_token,
    } = hello
    else {
        let e = Error::net_permanent("handshake", "first message must be Hello");
        let _ = write_frame(&mut stream, &Response::Err(e.clone()).encode());
        return Err(e);
    };
    if version != PROTOCOL_VERSION {
        let e = Error::net_permanent(
            "handshake",
            format!("protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"),
        );
        write_frame(&mut stream, &Response::Err(e.clone()).encode())?;
        return Err(e);
    }
    if auth_token != config.auth_token {
        let e = Error::net_permanent("handshake", "auth token rejected");
        write_frame(&mut stream, &Response::Err(e.clone()).encode())?;
        return Err(e);
    }
    // Admission already happened in the accept loop (a capped slot
    // reservation); a thread running here holds a slot by construction.

    // Resolve the resume token: issue, reattach, or adopt.
    let token = match attach_token(state, &resume_token, &namespace) {
        Ok(t) => t,
        Err(e) => {
            write_frame(&mut stream, &Response::Err(e.clone()).encode())?;
            return Err(e);
        }
    };

    let session_id;
    let cancelled = Arc::new(AtomicBool::new(false));
    {
        let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
        // Zombie takeover: a live session still holding this token is a
        // previous incarnation of *this* client whose wire death the
        // server has not noticed yet. Cancel it and free its slot so
        // the namespace check below does not see our own ghost.
        sessions.retain(|_, s| {
            if s.token == token {
                s.cancelled.store(true, Ordering::SeqCst);
                false
            } else {
                true
            }
        });
        if !namespace.is_empty() && sessions.values().any(|s| s.namespace == namespace) {
            drop(sessions);
            let e = Error::net_transient(
                "handshake",
                format!("namespace {namespace:?} is held by another live session; retry later"),
            );
            write_frame(&mut stream, &Response::Err(e.clone()).encode())?;
            return Err(e);
        }
        session_id = state.next_session.fetch_add(1, Ordering::SeqCst);
        sessions.insert(
            session_id,
            SessionEntry {
                namespace: namespace.clone(),
                token: token.clone(),
                cancelled: Arc::clone(&cancelled),
            },
        );
    }

    let (max_statement_len, limits) = db.with(|d| {
        (
            d.config().max_statement_len as u64,
            d.config().limits.clone(),
        )
    });
    write_frame(
        &mut stream,
        &Response::HelloAck {
            version: PROTOCOL_VERSION,
            session: session_id,
            max_statement_len,
            limits,
            description: format!(
                "sqlem-server v{} ({})",
                env!("CARGO_PKG_VERSION"),
                if db.with(|d| d.is_durable()) {
                    "durable"
                } else {
                    "in-memory"
                }
            ),
            resume_token: token.clone(),
        }
        .encode(),
    )?;

    // ---- request loop ----------------------------------------------
    // This session's working-memory budget: chained under the global
    // pool when both knobs are set, so one greedy session trips its own
    // ceiling before it can starve everyone else's.
    let budget = match (&state.global_budget, config.session_memory_budget) {
        (Some(global), Some(per)) => Some(MemoryBudget::child_of(global, per)),
        (Some(global), None) => Some(global.clone()),
        (None, Some(per)) => Some(MemoryBudget::new(per)),
        (None, None) => None,
    };
    let mut my_prepared: Vec<u64> = Vec::new();
    let result = request_loop(
        &mut stream,
        db,
        config,
        state,
        &token,
        budget.as_ref(),
        &cancelled,
        &mut my_prepared,
    );

    // ---- teardown --------------------------------------------------
    db.with(|d| {
        for id in &my_prepared {
            d.unregister_prepared(*id);
        }
    });
    state
        .sessions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&session_id);
    if result.is_ok() {
        // Orderly goodbye: retire the token and its dedup window. A
        // torn connection keeps both alive for reattach.
        let mut dedup = state.dedup.lock().unwrap_or_else(|e| e.into_inner());
        if dedup.remove(&token).is_some() {
            if let Some(log) = state.session_log.as_ref() {
                let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
                let _ = log.close_token(&token);
            }
        }
    }
    result
}

/// Resolve the Hello's resume token against the dedup registry:
/// empty → issue a fresh token; known → reattach (namespace must
/// match); unknown → adopt it with a fresh window (a non-durable
/// restart forgot the token — the data is gone too, so a fresh window
/// is exactly right).
fn attach_token(state: &ServerState, resume_token: &str, namespace: &str) -> Result<String> {
    let mut dedup = state.dedup.lock().unwrap_or_else(|e| e.into_inner());
    let token = if resume_token.is_empty() {
        loop {
            let t = format_token(state.next_token.fetch_add(1, Ordering::SeqCst));
            if !dedup.contains_key(&t) {
                break t;
            }
        }
    } else {
        resume_token.to_string()
    };
    match dedup.get(&token) {
        Some(entry) => {
            if entry.namespace != namespace {
                return Err(Error::net_permanent(
                    "handshake",
                    format!(
                        "resume token is bound to namespace {:?}, not {namespace:?}",
                        entry.namespace
                    ),
                ));
            }
        }
        None => {
            if let Some(n) = token_ordinal(&token) {
                // Keep issued ordinals ahead of any adopted token.
                state.next_token.fetch_max(n + 1, Ordering::SeqCst);
            }
            dedup.insert(
                token.clone(),
                DedupEntry {
                    namespace: namespace.to_string(),
                    cache: ReplyCache::default(),
                },
            );
            if let Some(log) = state.session_log.as_ref() {
                let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
                log.open_token(&token, namespace)?;
            }
        }
    }
    Ok(token)
}

#[allow(clippy::too_many_arguments)]
fn request_loop(
    stream: &mut TcpStream,
    db: &SharedDatabase,
    config: &ServerConfig,
    state: &ServerState,
    token: &str,
    budget: Option<&MemoryBudget>,
    cancelled: &AtomicBool,
    my_prepared: &mut Vec<u64>,
) -> Result<()> {
    loop {
        let payload = read_frame(stream)?; // idle timeout closes here
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                write_frame(stream, &Response::Err(e.clone()).encode())?;
                return Err(e);
            }
        };
        if cancelled.load(Ordering::SeqCst) {
            let e = Error::net_permanent("session", "session cancelled by peer request");
            write_frame(stream, &Response::Err(e.clone()).encode())?;
            return Err(e);
        }
        let response = match request {
            Request::Hello { .. } => {
                Response::Err(Error::net_permanent("session", "duplicate Hello"))
            }
            Request::Goodbye => {
                write_frame(stream, &Response::Ok.encode())?;
                return Ok(());
            }
            Request::Cancel { session } => {
                let sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
                match sessions.get(&session) {
                    Some(entry) => {
                        entry.cancelled.store(true, Ordering::SeqCst);
                        Response::Bool(true)
                    }
                    None => Response::Bool(false),
                }
            }
            other => dispatch_db(db, config, state, token, budget, other, my_prepared),
        };
        write_frame(stream, &response.encode())?;
    }
}

/// Execute one database-touching request under the bounded lock wait.
#[allow(clippy::too_many_arguments)]
fn dispatch_db(
    db: &SharedDatabase,
    config: &ServerConfig,
    state: &ServerState,
    token: &str,
    budget: Option<&MemoryBudget>,
    request: Request,
    my_prepared: &mut Vec<u64>,
) -> Response {
    let run = |f: &mut dyn FnMut(&mut Database) -> Response| -> Response {
        match db.with_timeout(config.lock_timeout, |d| f(d)) {
            Some(resp) => resp,
            None => Response::Err(Error::net_transient(
                "execute",
                format!(
                    "statement timeout: database lock not acquired within {:?}",
                    config.lock_timeout
                ),
            )),
        }
    };
    fn reply<T>(r: Result<T>, ok: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => ok(v),
            Err(e) => Response::Err(e),
        }
    }
    match request {
        Request::Query { meta, sql } => keyed(db, config, state, token, budget, meta, &mut |d| {
            d.execute(&sql).map(Response::Rows)
        }),
        Request::ExecutePartial { meta, sql } => {
            keyed(db, config, state, token, budget, meta, &mut |d| {
                d.execute_partial(&sql).map(Response::Partial)
            })
        }
        Request::Prepare { statements } => {
            run(&mut |d| match SqlExecutor::prepare_script(d, &statements) {
                Ok(ids) => {
                    my_prepared.extend(ids.iter().map(|i| i.0));
                    Response::PreparedIds(ids.iter().map(|i| i.0).collect())
                }
                Err(e) => Response::PrepareErr {
                    index: e.index as u64,
                    error: e.error,
                },
            })
        }
        Request::ExecutePrepared { meta, id } => {
            if !my_prepared.contains(&id) {
                return Response::Err(Error::net_permanent(
                    "execute prepared",
                    format!("unknown prepared id {id} for this session"),
                ));
            }
            keyed(db, config, state, token, budget, meta, &mut |d| {
                SqlExecutor::run_prepared(d, sqlengine::PreparedId(id)).map(Response::Rows)
            })
        }
        Request::ClearPrepared => run(&mut |d| {
            for id in my_prepared.drain(..) {
                d.unregister_prepared(id);
            }
            Response::Ok
        }),
        Request::BulkInsert { meta, table, rows } => {
            // `keyed` takes an FnMut but calls it at most once; Option
            // lets the rows move into bulk_insert without a clone.
            let mut rows = Some(rows);
            keyed(db, config, state, token, budget, meta, &mut |d| {
                let rows = rows.take().expect("bulk-insert closure runs once");
                d.bulk_insert(&table, rows)
                    .map(|n| Response::Count(n as u64))
            })
        }
        Request::TableRows { table } => {
            run(&mut |d| reply(d.table_len(&table), |n| Response::Count(n as u64)))
        }
        Request::HasTable { table } => run(&mut |d| Response::Bool(d.contains_table(&table))),
        Request::CatalogSnapshot => run(&mut |d| Response::Catalog(d.symbolic_catalog())),
        Request::SetMetrics { on } => run(&mut |d| {
            if on {
                d.enable_metrics();
            } else {
                d.disable_metrics();
            }
            Response::Ok
        }),
        Request::MetricsLen => {
            run(&mut |d| reply(SqlExecutor::metrics_len(d), |n| Response::Count(n as u64)))
        }
        Request::MetricsSince { from } => run(&mut |d| {
            reply(
                SqlExecutor::metrics_since(d, from as usize),
                Response::Metrics,
            )
        }),
        Request::NoteRetry => run(&mut |d| {
            d.note_statement_retry();
            Response::Ok
        }),
        // Handled by the caller.
        Request::Hello { .. } | Request::Goodbye | Request::Cancel { .. } => {
            Response::Err(Error::net_permanent("session", "unreachable request"))
        }
    }
}

/// Rewrite an engine-raised deadline error (which only knows "the
/// budget expired", `budget_ms == 0`) with the budget the client
/// actually sent, so the surfaced error is actionable.
fn rewrite_deadline(e: Error, budget_ms: u64) -> Error {
    match e {
        Error::Deadline {
            context,
            budget_ms: 0,
        } => Error::Deadline { context, budget_ms },
        other => other,
    }
}

/// Execute one idempotency-keyed statement: admit it against the
/// session's dedup window, journal intent/outcome around execution
/// (durable servers), enforce the deadline budget against both lock
/// wait and execution, install the session's memory budget for the
/// statement's duration, and record the reply for future replays.
#[allow(clippy::too_many_arguments)]
fn keyed(
    db: &SharedDatabase,
    config: &ServerConfig,
    state: &ServerState,
    token: &str,
    budget: Option<&MemoryBudget>,
    meta: StmtMeta,
    exec: &mut dyn FnMut(&mut Database) -> Result<Response>,
) -> Response {
    // The dedup registry is held for the whole statement: it serializes
    // replay classification, session-log access and the rewrite pass
    // (lock order: dedup → db → log; the log is always innermost).
    let mut dedup = state.dedup.lock().unwrap_or_else(|e| e.into_inner());
    match dedup.get_mut(token) {
        None => {
            return Response::Err(Error::net_permanent(
                "session",
                "unknown session token (session was closed)",
            ))
        }
        Some(entry) => match entry.cache.admit(meta.seq) {
            Admit::Replay(r) => return r,
            Admit::ProvenApplied => return Response::ReplayApplied,
            Admit::Fresh | Admit::NotApplied => {}
        },
    }

    // Deadline budget: bounds the lock wait below and, via the engine's
    // statement deadline, the execution inside.
    let deadline =
        (meta.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(meta.deadline_ms));
    let lock_wait = match deadline {
        Some(dl) => {
            let remaining = dl.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Response::Err(Error::deadline("lock wait", meta.deadline_ms));
            }
            config.lock_timeout.min(remaining)
        }
        None => config.lock_timeout,
    };

    let executed = db.with_timeout(lock_wait, |d| {
        // Journal the intent (fsynced) *before* executing: the WAL seq
        // recorded here lets recovery decide whether this statement's
        // effects committed. This fsync also flushes every earlier
        // outcome append — the invariant recovery judgement relies on.
        let engine_seq = d.wal_next_seq();
        if let (Some(log), Some(eseq)) = (state.session_log.as_ref(), engine_seq) {
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = log.intent(token, meta.seq, eseq) {
                // Refuse to execute without a durable intent: failing
                // closed keeps exactly-once sound.
                return (Response::Err(e), false);
            }
        }
        d.set_statement_deadline(deadline);
        d.set_memory_budget(budget.cloned());
        let result = exec(d);
        d.set_memory_budget(None);
        d.set_statement_deadline(None);
        // Applied = succeeded and consumed a WAL frame. In-memory
        // databases report false: their replies never outlive the
        // process, so the applied watermark is never consulted.
        let applied = result.is_ok()
            && match (engine_seq, d.wal_next_seq()) {
                (Some(before), Some(after)) => after > before,
                _ => false,
            };
        let response = match result {
            Ok(r) => r,
            Err(e) => Response::Err(rewrite_deadline(e, meta.deadline_ms)),
        };
        if let Some(log) = state.session_log.as_ref() {
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            // Failures are fsynced (their WAL evidence may be compacted
            // away later); success outcomes ride the next intent's
            // fsync. An append failure here is survivable either way:
            // recovery re-derives the outcome from the WAL.
            let failed = matches!(response, Response::Err(_));
            let _ = log.outcome(token, meta.seq, applied, failed);
        }
        (response, applied)
    });

    let (response, applied) = match executed {
        Some(v) => v,
        None => {
            // Lock not acquired in time. Not recorded in the dedup
            // window: nothing executed, so a replay (or retry) should
            // attempt the lock again rather than be served this error.
            return if deadline.is_some_and(|dl| Instant::now() >= dl) {
                Response::Err(Error::deadline("lock wait", meta.deadline_ms))
            } else {
                Response::Err(Error::net_transient(
                    "execute",
                    format!(
                        "statement timeout: database lock not acquired within {:?}",
                        config.lock_timeout
                    ),
                ))
            };
        }
    };

    if let Some(entry) = dedup.get_mut(token) {
        entry.cache.record(meta.seq, response.clone(), applied);
    }

    // Size-bound the session log: rewrite it as per-token baselines.
    // Safe here because we hold the dedup lock — no statement is
    // between its intent and outcome, and no other log writer runs.
    if let Some(log) = state.session_log.as_ref() {
        let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
        if log.wants_rewrite() {
            let live: Vec<(String, String, Option<u64>, u64)> = dedup
                .iter()
                .map(|(t, e)| {
                    (
                        t.clone(),
                        e.namespace.clone(),
                        e.cache.applied_watermark(),
                        e.cache.expected(),
                    )
                })
                .collect();
            let _ = log.rewrite(&live);
        }
    }
    response
}
