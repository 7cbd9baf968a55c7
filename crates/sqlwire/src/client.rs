//! The remote [`SqlExecutor`]: SQLEM's workstation side of the wire.
//!
//! [`RemoteConnection`] speaks the [`crate::proto`] protocol over one
//! TCP connection and implements [`SqlExecutor`], so the entire `sqlem`
//! driver — preflight linting, prepared E/M scripts, checkpoints,
//! telemetry — runs against a server unchanged: the paper's two-tier
//! deployment (§1.4) falls out of the trait seam.
//!
//! ## Reconnection
//!
//! A transient wire failure (reset, timeout, refused dial while the
//! server restarts) marks the connection dead and surfaces as a
//! *transient* [`Error::Net`], which `sqlem`'s `RetryPolicy` already
//! classifies as retryable. The retried operation finds the dead
//! connection and re-dials transparently, restoring session state the
//! server lost: the handshake, the metrics-recording flag, and every
//! prepared script (client-side ids are stable across reconnects; the
//! fresh server ids are remapped internally).
//!
//! ## Exactly-once replay
//!
//! Lost acks are *not* ambiguous here: every statement-bearing request
//! carries a session-scoped sequence number ([`StmtMeta`]), and the
//! handshake carries a durable *resume token* that reattaches a
//! reconnecting client to its server-side dedup window. When the wire
//! dies with a statement in flight, the client remembers the statement
//! and its sequence number; the retried operation re-sends it under
//! the *same* number, and the server either serves the cached reply,
//! answers [`Response::ReplayApplied`] (the effects committed before
//! the ack was lost — reconciled locally instead of re-executed), or
//! re-executes a statement proven to have left no effects. A reply
//! that *was* decoded — success or engine error — resolves the
//! statement, so an application-level retry after an engine fault is a
//! new statement under a new sequence number, never a replay.
//!
//! Bulk loads chunk client-side; the same machinery tracks which
//! chunks were acked so a resumed load replays only the unresolved
//! chunk and never re-inserts acked rows (see
//! [`SqlExecutor::bulk_insert_rows`]).
//!
//! Per-statement deadlines ([`ClientConfig::statement_deadline`]) ride
//! the same header: the server enforces the budget against its lock
//! wait and the execution path and answers with the typed, transient
//! [`Error::Deadline`] when it expires.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sqlengine::{
    Error, ExecMetrics, Limits, PrepareError, PreparedId, QueryResult, Result, SqlExecutor,
    SymbolicCatalog, Value,
};

use crate::frame::{read_frame, write_frame};
use crate::proto::{Request, Response, StmtMeta, PROTOCOL_VERSION};

/// Rows per bulk-insert frame: keeps each frame far below
/// [`crate::frame::MAX_FRAME_LEN`] even for wide rows.
const BULK_CHUNK_ROWS: usize = 16 * 1024;

/// Dials [`RemoteConnection::connect`] makes before giving up on a
/// handshake that keeps failing transiently.
const CONNECT_ATTEMPTS: usize = 3;

/// Connection settings for [`RemoteConnection::connect`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Token presented in the handshake (must match the server's).
    pub auth_token: String,
    /// Work-table namespace to claim exclusively ("" = no claim).
    pub namespace: String,
    /// Dial timeout per address.
    pub connect_timeout: Duration,
    /// Optional cap on waiting for any single reply (None = block).
    pub read_timeout: Option<Duration>,
    /// Optional per-statement wall-clock budget, sent with every
    /// statement-bearing request and enforced *server-side* against
    /// both the lock wait and the execution path. Each attempt gets a
    /// fresh budget; expiry surfaces as the typed, transient
    /// [`Error::Deadline`].
    pub statement_deadline: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            auth_token: String::new(),
            namespace: String::new(),
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
            statement_deadline: None,
        }
    }
}

/// What the server told us at handshake, cached for the infallible
/// [`SqlExecutor`] accessors.
#[derive(Debug, Clone)]
struct HelloInfo {
    session: u64,
    max_statement_len: usize,
    limits: Limits,
    description: String,
}

/// Identity of the statement whose reply the wire may have eaten. A
/// keyed call whose logical key matches replays under the same
/// sequence number; any other keyed call abandons the old number (the
/// caller gave up on that statement).
#[derive(Debug, Clone, PartialEq, Eq)]
enum InFlightKey {
    /// `execute` — keyed by statement text.
    Query(String),
    /// `run_prepared` — keyed by the *client* id, which is stable
    /// across redials (server ids are remapped on reconnect).
    Exec(u64),
    /// `execute_partial` — keyed by statement text, distinct from
    /// [`InFlightKey::Query`] so the same SQL sent both ways never
    /// replays the wrong reply shape.
    Partial(String),
    /// One bulk chunk — keyed by table and row offset within the load.
    Bulk {
        /// Destination table.
        table: String,
        /// Offset of the chunk's first row within the full load.
        offset: usize,
    },
}

/// Progress of a chunked bulk load, kept across wire failures so a
/// resumed load skips acked chunks instead of re-sending them.
#[derive(Debug, Clone)]
struct BulkProgress {
    table: String,
    total_rows: usize,
    /// Rows in chunks the server has acknowledged.
    acked_rows: usize,
    /// Sum of the server's per-chunk insert counts so far.
    acked_count: usize,
}

/// A reconnecting client-side [`SqlExecutor`] over TCP.
pub struct RemoteConnection {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    hello: HelloInfo,
    metrics_on: bool,
    /// Every prepared script, in prepare order, for replay on reconnect.
    groups: Vec<Vec<String>>,
    /// Client id (stable) → (group index, offset within group).
    id_map: Vec<(usize, usize)>,
    /// Client id → current server id (rebuilt on reconnect).
    server_ids: HashMap<u64, u64>,
    /// Durable session identity, presented on every (re)dial.
    resume_token: String,
    /// Next fresh statement sequence number.
    next_seq: u64,
    /// The statement whose reply a wire failure may have eaten.
    in_flight: Option<(u64, InFlightKey)>,
    /// Resumable bulk-load progress (see [`BulkProgress`]).
    bulk: Option<BulkProgress>,
}

impl RemoteConnection {
    /// Dial `addr` (`host:port`) and complete the handshake eagerly, so
    /// a bad address, version or token fails here, not mid-run.
    pub fn connect(addr: &str, config: ClientConfig) -> Result<RemoteConnection> {
        let mut conn = RemoteConnection {
            addr: addr.to_string(),
            config,
            stream: None,
            hello: HelloInfo {
                session: 0,
                max_statement_len: usize::MAX,
                limits: Limits::unbounded(),
                description: String::new(),
            },
            metrics_on: false,
            groups: Vec::new(),
            id_map: Vec::new(),
            server_ids: HashMap::new(),
            resume_token: String::new(),
            next_seq: 0,
            in_flight: None,
            bulk: None,
        };
        // A handshake can be cut like any later frame: redial while the
        // wire fails transiently (the stream is gone). A bad address,
        // version or token is permanent, and a server that *answers* —
        // shedding load with a retry-after hint — is the caller's to
        // wait out; both fail on the first attempt.
        let mut attempt = 1;
        loop {
            match conn.dial() {
                Ok(()) => return Ok(conn),
                Err(e)
                    if e.is_transient() && conn.stream.is_none() && attempt < CONNECT_ATTEMPTS =>
                {
                    attempt += 1
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The server-assigned id of the current session (changes on
    /// reconnect; usable in [`RemoteConnection::cancel_session`]).
    pub fn session_id(&self) -> u64 {
        self.hello.session
    }

    /// The session resume token the server issued (stable across
    /// reconnects; a restarted durable server recognizes it).
    pub fn resume_token(&self) -> &str {
        &self.resume_token
    }

    /// Ask the server to cancel another live session (by the id its
    /// owner obtained from [`RemoteConnection::session_id`]). Returns
    /// whether the session existed.
    pub fn cancel_session(&mut self, session: u64) -> Result<bool> {
        match self.call(&Request::Cancel { session })? {
            Response::Bool(b) => Ok(b),
            other => Err(unexpected("Cancel", &other)),
        }
    }

    /// Establish the TCP stream, shake hands, and restore session state
    /// (metrics flag, prepared scripts) the server side may have lost.
    fn dial(&mut self) -> Result<()> {
        self.stream = None;
        let addrs: Vec<_> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| Error::net_permanent("resolve", format!("{}: {e}", self.addr)))?
            .collect();
        let mut last: Option<Error> = None;
        let mut stream = None;
        for a in addrs {
            match TcpStream::connect_timeout(&a, self.config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(crate::frame::io_to_net("connect", &e)),
            }
        }
        let Some(stream) = stream else {
            return Err(last.unwrap_or_else(|| {
                Error::net_permanent("resolve", format!("{}: no addresses", self.addr))
            }));
        };
        stream
            .set_nodelay(true)
            .map_err(|e| crate::frame::io_to_net("set_nodelay", &e))?;
        stream
            .set_read_timeout(self.config.read_timeout)
            .map_err(|e| crate::frame::io_to_net("set_read_timeout", &e))?;
        self.stream = Some(stream);

        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            auth_token: self.config.auth_token.clone(),
            namespace: self.config.namespace.clone(),
            resume_token: self.resume_token.clone(),
        };
        match self.raw_call(&hello)? {
            Response::HelloAck {
                version: _,
                session,
                max_statement_len,
                limits,
                description,
                resume_token,
            } => {
                self.hello = HelloInfo {
                    session,
                    max_statement_len: max_statement_len as usize,
                    limits,
                    description,
                };
                self.resume_token = resume_token;
            }
            other => return Err(unexpected("Hello", &other)),
        }

        // Restore what the (possibly restarted) server no longer has.
        if self.metrics_on {
            match self.raw_call(&Request::SetMetrics { on: true })? {
                Response::Ok => {}
                other => return Err(unexpected("SetMetrics", &other)),
            }
        }
        self.server_ids.clear();
        for (group_idx, group) in self.groups.clone().iter().enumerate() {
            let resp = self.raw_call(&Request::Prepare {
                statements: group.clone(),
            })?;
            let ids = match resp {
                Response::PreparedIds(ids) => ids,
                Response::PrepareErr { error, .. } => return Err(error),
                other => return Err(unexpected("Prepare", &other)),
            };
            for (offset, server_id) in ids.into_iter().enumerate() {
                let client_id = self
                    .id_map
                    .iter()
                    .position(|&(g, o)| g == group_idx && o == offset)
                    .expect("id_map covers every prepared statement")
                    as u64;
                self.server_ids.insert(client_id, server_id);
            }
        }
        Ok(())
    }

    /// One request/response over the live stream. Any wire failure
    /// kills the stream so the next call re-dials.
    fn raw_call(&mut self, req: &Request) -> Result<Response> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Error::net_transient("call", "connection is down"))?;
        let r = write_frame(stream, &req.encode()).and_then(|()| read_frame(stream));
        let payload = match r {
            Ok(p) => p,
            Err(e) => {
                self.stream = None;
                return Err(e);
            }
        };
        match Response::decode(&payload) {
            Ok(Response::Err(e)) => Err(e),
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// [`RemoteConnection::raw_call`] with transparent re-dial when the
    /// connection died earlier.
    fn call(&mut self, req: &Request) -> Result<Response> {
        if self.stream.is_none() {
            self.dial()?;
        }
        self.raw_call(req)
    }

    /// The statement metadata for this attempt: its sequence number
    /// plus a fresh deadline budget.
    fn meta(&self, seq: u64) -> StmtMeta {
        StmtMeta {
            seq,
            deadline_ms: self
                .config
                .statement_deadline
                .map_or(0, |d| d.as_millis().max(1) as u64),
        }
    }

    /// One statement-bearing request under the exactly-once contract.
    ///
    /// If `key` matches the in-flight statement (its reply was eaten by
    /// a wire failure), the send *replays* under the same sequence
    /// number; otherwise it is a fresh statement under a fresh number.
    /// Any decoded reply — success or engine error — resolves the
    /// in-flight slot; only a wire death keeps it armed for replay.
    fn keyed_call(
        &mut self,
        key: InFlightKey,
        build: impl FnOnce(StmtMeta) -> Request,
    ) -> Result<Response> {
        let seq = match &self.in_flight {
            Some((s, k)) if *k == key => *s,
            _ => {
                let s = self.next_seq;
                self.next_seq += 1;
                s
            }
        };
        self.in_flight = Some((seq, key));
        if self.stream.is_none() {
            self.dial()?; // in_flight stays armed if the dial fails
        }
        let result = self.raw_call(&build(self.meta(seq)));
        if self.stream.is_some() {
            // A reply was decoded (even an engine error): the statement
            // is resolved. A later application-level retry is a *new*
            // statement, never a replay.
            self.in_flight = None;
        }
        result
    }
}

impl std::fmt::Debug for RemoteConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteConnection")
            .field("addr", &self.addr)
            .field("session", &self.hello.session)
            .field("connected", &self.stream.is_some())
            .field("resume_token", &self.resume_token)
            .finish_non_exhaustive()
    }
}

fn unexpected(what: &str, got: &Response) -> Error {
    Error::net_permanent(
        "protocol",
        format!("unexpected response to {what}: {got:?}"),
    )
}

impl SqlExecutor for RemoteConnection {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let key = InFlightKey::Query(sql.to_string());
        match self.keyed_call(key, |meta| Request::Query {
            meta,
            sql: sql.to_string(),
        })? {
            Response::Rows(q) => Ok(q),
            // The effects committed before the ack was lost; the result
            // bytes are gone. Reads are never answered this way (they
            // leave no effects and simply re-execute), so an empty
            // affected-rows result is a faithful reconciliation.
            Response::ReplayApplied => Ok(QueryResult::affected(0)),
            other => Err(unexpected("Query", &other)),
        }
    }

    fn execute_partial(&mut self, sql: &str) -> Result<sqlengine::PartialAggResult> {
        let key = InFlightKey::Partial(sql.to_string());
        match self.keyed_call(key, |meta| Request::ExecutePartial {
            meta,
            sql: sql.to_string(),
        })? {
            Response::Partial(p) => Ok(p),
            // Partial execution is a pure read: it leaves no effects,
            // so a server that lost the cached reply bytes can never
            // answer ReplayApplied for it — re-execution under a fresh
            // dial handles the recovery instead.
            other => Err(unexpected("ExecutePartial", &other)),
        }
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        let wrap = |error: Error| PrepareError { index: 0, error };
        let resp = self
            .call(&Request::Prepare {
                statements: statements.to_vec(),
            })
            .map_err(wrap)?;
        let server_ids = match resp {
            Response::PreparedIds(ids) => ids,
            Response::PrepareErr { index, error } => {
                return Err(PrepareError {
                    index: index as usize,
                    error,
                })
            }
            other => return Err(wrap(unexpected("Prepare", &other))),
        };
        let group_idx = self.groups.len();
        self.groups.push(statements.to_vec());
        let mut client_ids = Vec::with_capacity(server_ids.len());
        for (offset, server_id) in server_ids.into_iter().enumerate() {
            let client_id = self.id_map.len() as u64;
            self.id_map.push((group_idx, offset));
            self.server_ids.insert(client_id, server_id);
            client_ids.push(PreparedId(client_id));
        }
        Ok(client_ids)
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        if self.stream.is_none() {
            self.dial()?; // refreshes server_ids
        }
        let server_id = *self.server_ids.get(&id.0).ok_or_else(|| {
            Error::net_permanent("execute prepared", format!("unknown prepared id {}", id.0))
        })?;
        match self.keyed_call(InFlightKey::Exec(id.0), |meta| Request::ExecutePrepared {
            meta,
            id: server_id,
        })? {
            Response::Rows(q) => Ok(q),
            Response::ReplayApplied => Ok(QueryResult::affected(0)),
            other => Err(unexpected("ExecutePrepared", &other)),
        }
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.groups.clear();
        self.id_map.clear();
        self.server_ids.clear();
        match self.call(&Request::ClearPrepared)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("ClearPrepared", &other)),
        }
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        if rows.is_empty() {
            // Arity/table checks still apply server-side.
            let key = InFlightKey::Bulk {
                table: table.to_string(),
                offset: 0,
            };
            return match self.keyed_call(key, |meta| Request::BulkInsert {
                meta,
                table: table.to_string(),
                rows,
            })? {
                Response::Count(n) => Ok(n as usize),
                Response::ReplayApplied => Ok(0),
                other => Err(unexpected("BulkInsert", &other)),
            };
        }
        // Resume a matching interrupted load (same table, same shape):
        // chunks the server acked are skipped locally; the unresolved
        // chunk replays under its original sequence number.
        let mut progress = match self.bulk.take() {
            Some(p) if p.table == table && p.total_rows == rows.len() => p,
            _ => {
                self.in_flight = None; // a different load abandons any old chunk
                BulkProgress {
                    table: table.to_string(),
                    total_rows: rows.len(),
                    acked_rows: 0,
                    acked_count: 0,
                }
            }
        };
        while progress.acked_rows < rows.len() {
            let offset = progress.acked_rows;
            let end = (offset + BULK_CHUNK_ROWS).min(rows.len());
            let chunk: Vec<Vec<Value>> = rows[offset..end].to_vec();
            let key = InFlightKey::Bulk {
                table: table.to_string(),
                offset,
            };
            let resp = self.keyed_call(key, |meta| Request::BulkInsert {
                meta,
                table: table.to_string(),
                rows: chunk,
            });
            match resp {
                Ok(Response::Count(n)) => {
                    progress.acked_rows = end;
                    progress.acked_count += n as usize;
                }
                // This chunk committed before its ack was lost: every
                // row of it is in (bulk inserts are all-or-nothing).
                Ok(Response::ReplayApplied) => {
                    progress.acked_rows = end;
                    progress.acked_count += end - offset;
                }
                Ok(other) => return Err(unexpected("BulkInsert", &other)),
                Err(e) => {
                    if e.is_transient() {
                        // Keep progress (and the armed in-flight chunk)
                        // so the retried load resumes, not restarts.
                        self.bulk = Some(progress);
                    }
                    return Err(e);
                }
            }
        }
        Ok(progress.acked_count)
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        match self.call(&Request::TableRows {
            table: table.to_string(),
        })? {
            Response::Count(n) => Ok(n as usize),
            other => Err(unexpected("TableRows", &other)),
        }
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        match self.call(&Request::HasTable {
            table: table.to_string(),
        })? {
            Response::Bool(b) => Ok(b),
            other => Err(unexpected("HasTable", &other)),
        }
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        match self.call(&Request::CatalogSnapshot)? {
            Response::Catalog(c) => Ok(c),
            other => Err(unexpected("CatalogSnapshot", &other)),
        }
    }

    fn max_statement_len(&self) -> usize {
        self.hello.max_statement_len
    }

    fn analyze_limits(&self) -> Limits {
        self.hello.limits.clone()
    }

    fn note_statement_retry(&mut self) {
        // Best-effort: retry bookkeeping must never turn a retryable
        // situation into a new failure.
        let _ = self.call(&Request::NoteRetry);
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        match self.call(&Request::SetMetrics { on })? {
            Response::Ok => {
                self.metrics_on = on;
                Ok(())
            }
            other => Err(unexpected("SetMetrics", &other)),
        }
    }

    fn metrics_enabled(&self) -> bool {
        self.metrics_on
    }

    fn metrics_len(&mut self) -> Result<usize> {
        match self.call(&Request::MetricsLen)? {
            Response::Count(n) => Ok(n as usize),
            other => Err(unexpected("MetricsLen", &other)),
        }
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        match self.call(&Request::MetricsSince { from: from as u64 })? {
            Response::Metrics(m) => Ok(m),
            other => Err(unexpected("MetricsSince", &other)),
        }
    }

    fn describe(&self) -> String {
        format!(
            "remote server at {} ({})",
            self.addr, self.hello.description
        )
    }
}

impl Drop for RemoteConnection {
    fn drop(&mut self) {
        // Orderly goodbye frees the namespace immediately instead of at
        // the server's idle timeout; errors are moot while dropping.
        if let Some(stream) = self.stream.as_mut() {
            let _ = write_frame(stream, &Request::Goodbye.encode());
            let _ = stream.flush();
        }
    }
}
