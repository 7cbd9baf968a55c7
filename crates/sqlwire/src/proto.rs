//! The message vocabulary and its binary encoding.
//!
//! One frame payload (see [`crate::frame`]) encodes exactly one
//! [`Request`] or [`Response`]; the first byte is the opcode, the rest
//! is opcode-specific and reuses the storage layer's little-endian
//! codec ([`sqlengine::storage::codec`]) — the same length-prefixed
//! strings and tagged [`Value`]s the WAL writes, so doubles cross the
//! wire bit-exact (`f64::to_bits`) and remote EM runs can converge
//! *bit-identically* to in-process runs.
//!
//! ## Error relay
//!
//! Server-side [`Error`]s cross the wire with just enough structure for
//! the client-side driver logic to keep working remotely:
//! [`Error::StatementTooLong`] (the §3.3 capacity taxonomy that
//! `sqlem`'s purpose attribution promotes), [`Error::Arithmetic`] (the
//! degenerate-cluster recovery trigger), [`Error::Injected`] (fault
//! injection's transient/applied semantics feed the retry policy),
//! [`Error::Net`] and [`Error::Deadline`] (budget exhaustion must stay
//! typed so clients can render an actionable message), and
//! [`Error::ResourceExhausted`] (the memory governor's transient
//! rejection, which drives the driver's degradation ladder) travel as
//! themselves; every other variant arrives as its rendered message
//! wrapped in [`Error::Remote`].
//!
//! ## Statement idempotency keys
//!
//! The three statement-bearing requests ([`Request::Query`],
//! [`Request::ExecutePrepared`], [`Request::BulkInsert`]) carry a
//! [`StmtMeta`]: a per-session monotonically increasing sequence
//! number (the idempotency key the server's reply cache dedups on) and
//! the client's remaining per-statement deadline budget. Sessions are
//! resumable: [`Request::Hello`] carries a resume token (empty for a
//! new session) and [`Response::HelloAck`] returns the token the
//! server issued or adopted, so a reconnecting client reattaches to
//! its dedup window — even across a server `kill -9` when the server
//! is durable. See `docs/SERVER.md` §3 for the full contract.

use sqlengine::expr::Column;
use sqlengine::storage::codec::{
    put_bool, put_f64, put_opt_value, put_schema, put_seq, put_str, put_u32, put_u64, put_value,
    read_opt_value, read_schema, read_value, Reader,
};
use sqlengine::{
    AggCell, Error, ExactSum, ExecMetrics, Limits, PartialAggResult, PartialBuilder, QueryResult,
    ScanMetric, StatementKind, SymbolicCatalog, Value,
};
use std::time::Duration;

/// Protocol version; [`Request::Hello`] carries the client's, the server
/// rejects mismatches permanently (a newer binary won't start working by
/// retrying). Version 2 added statement sequence numbers, deadline
/// propagation and session resume tokens.
pub const PROTOCOL_VERSION: u32 = 2;

/// Per-statement metadata every statement-bearing request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StmtMeta {
    /// Session-scoped, monotonically increasing statement sequence
    /// number — the idempotency key the server's reply cache dedups
    /// on. A redial replays the in-flight statement under its original
    /// `seq`; a genuine retry after an *engine* error uses a fresh one.
    pub seq: u64,
    /// Remaining wall-clock budget for this statement in milliseconds,
    /// measured at send time (relative, so no clock synchronisation is
    /// assumed). `0` means no deadline.
    pub deadline_ms: u64,
}

impl StmtMeta {
    /// Metadata carrying only a sequence number (no deadline).
    pub fn seq(seq: u64) -> Self {
        StmtMeta {
            seq,
            deadline_ms: 0,
        }
    }
}

fn put_meta(buf: &mut Vec<u8>, m: &StmtMeta) {
    put_u64(buf, m.seq);
    put_u64(buf, m.deadline_ms);
}

fn read_meta(r: &mut Reader<'_>) -> Result<StmtMeta, Error> {
    Ok(StmtMeta {
        seq: r.u64()?,
        deadline_ms: r.u64()?,
    })
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session: version/auth check plus the work-table
    /// namespace this client wants exclusively (empty = shared/no claim).
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Shared-secret token; must equal the server's (both default
        /// empty).
        auth_token: String,
        /// Work-table prefix the session claims exclusively.
        namespace: String,
        /// Resume token from a previous [`Response::HelloAck`], or empty
        /// to start a fresh session. A known token reattaches the
        /// client to its namespace, sequence window and reply cache.
        resume_token: String,
    },
    /// Execute one SQL statement.
    Query {
        /// Idempotency key + deadline budget.
        meta: StmtMeta,
        /// Statement text.
        sql: String,
    },
    /// Execute one aggregate `SELECT` up to — but not including — the
    /// finalize step, returning exact per-group accumulator states
    /// ([`Response::Partial`]). The scatter half of a distributed
    /// aggregate: a cluster coordinator merges every shard's partials
    /// and finalizes once, bit-identically to a single-node run.
    ExecutePartial {
        /// Idempotency key + deadline budget.
        meta: StmtMeta,
        /// Statement text (must be a single aggregate `SELECT`).
        sql: String,
    },
    /// Prepare a script of statements atomically (all or none).
    Prepare {
        /// Statement texts, in execution order.
        statements: Vec<String>,
    },
    /// Execute a previously prepared statement by server-assigned id.
    ExecutePrepared {
        /// Idempotency key + deadline budget.
        meta: StmtMeta,
        /// Id from the [`Response::PreparedIds`] answering a `Prepare`.
        id: u64,
    },
    /// Drop every prepared statement of this session.
    ClearPrepared,
    /// Parser-bypassing bulk load (the FastLoad analogue, DESIGN.md §5).
    BulkInsert {
        /// Idempotency key + deadline budget.
        meta: StmtMeta,
        /// Destination table.
        table: String,
        /// Rows; every row must match the table's arity.
        rows: Vec<Vec<Value>>,
    },
    /// Row count of a table.
    TableRows {
        /// Table name.
        table: String,
    },
    /// Does the table exist?
    HasTable {
        /// Table name.
        table: String,
    },
    /// Schema snapshot of every table, for client-side pre-flight linting.
    CatalogSnapshot,
    /// Start/stop recording per-statement execution telemetry.
    SetMetrics {
        /// `true` to record.
        on: bool,
    },
    /// Current length of the metrics log (cursor acquisition).
    MetricsLen,
    /// Metrics entries from a cursor to the end (non-draining).
    MetricsSince {
        /// 0-based start index.
        from: u64,
    },
    /// Forward a client-side retry notice to the server's fault injector
    /// (keeps statement sequence numbers aligned across the wire).
    NoteRetry,
    /// Ask the server to cancel another live session: its namespace is
    /// released and its next operation fails permanently.
    Cancel {
        /// Session id from that session's [`Response::HelloAck`].
        session: u64,
    },
    /// Orderly goodbye; the server closes after acknowledging.
    Goodbye,
}

/// Server-to-client messages.
///
/// No `PartialEq`: [`SymbolicCatalog`] is not comparable; tests use
/// [`same_encoding`] instead.
#[derive(Debug, Clone)]
pub enum Response {
    /// Successful handshake; carries everything the client caches.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
        /// This session's id (usable in [`Request::Cancel`]).
        session: u64,
        /// The engine's statement-length parser cap.
        max_statement_len: u64,
        /// The engine's semantic-analysis complexity ceilings.
        limits: Limits,
        /// Human-readable server identification.
        description: String,
        /// Session resume token: either the one the client presented
        /// (reattach/adopt) or a freshly issued one. The client stores
        /// it and presents it on every redial.
        resume_token: String,
    },
    /// Operation succeeded with nothing to return.
    Ok,
    /// Boolean answer ([`Request::HasTable`]).
    Bool(bool),
    /// Numeric answer (row counts, metrics length).
    Count(u64),
    /// Full query result.
    Rows(QueryResult),
    /// The operation failed; see the module docs for the relay taxonomy.
    Err(Error),
    /// Ids answering a [`Request::Prepare`], one per statement in order.
    PreparedIds(Vec<u64>),
    /// A `Prepare` failed at statement `index`; nothing was registered.
    PrepareErr {
        /// 0-based index of the offending statement.
        index: u64,
        /// Why it failed.
        error: Error,
    },
    /// Schema snapshot answering [`Request::CatalogSnapshot`].
    Catalog(SymbolicCatalog),
    /// Telemetry entries answering [`Request::MetricsSince`].
    Metrics(Vec<ExecMetrics>),
    /// The un-finalized group table answering a
    /// [`Request::ExecutePartial`]. Expansion components travel as raw
    /// IEEE-754 bits, so merged sums finalize bit-identically to a
    /// single-node run.
    Partial(PartialAggResult),
    /// A replayed statement is *proven applied* (its WAL frame
    /// committed before the crash) but the cached reply bytes did not
    /// survive the server restart. The client reconciles: the mutation
    /// happened exactly once, only the result payload is gone — safe
    /// for the DML/bulk statements the EM driver replays, which only
    /// need the applied/not-applied bit.
    ReplayApplied,
}

// ---------------------------------------------------------------------
// opcodes

const OP_HELLO: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_PREPARE: u8 = 0x03;
const OP_EXECUTE_PREPARED: u8 = 0x04;
const OP_CLEAR_PREPARED: u8 = 0x05;
const OP_BULK_INSERT: u8 = 0x06;
const OP_TABLE_ROWS: u8 = 0x07;
const OP_HAS_TABLE: u8 = 0x08;
const OP_CATALOG_SNAPSHOT: u8 = 0x09;
const OP_SET_METRICS: u8 = 0x0A;
const OP_METRICS_LEN: u8 = 0x0B;
const OP_METRICS_SINCE: u8 = 0x0C;
const OP_NOTE_RETRY: u8 = 0x0D;
const OP_CANCEL: u8 = 0x0E;
const OP_GOODBYE: u8 = 0x0F;
const OP_EXECUTE_PARTIAL: u8 = 0x10;

const OP_HELLO_ACK: u8 = 0x81;
const OP_OK: u8 = 0x82;
const OP_BOOL: u8 = 0x83;
const OP_COUNT: u8 = 0x84;
const OP_ROWS: u8 = 0x85;
const OP_ERR: u8 = 0x86;
const OP_PREPARED_IDS: u8 = 0x87;
const OP_PREPARE_ERR: u8 = 0x88;
const OP_CATALOG: u8 = 0x89;
const OP_METRICS: u8 = 0x8A;
const OP_REPLAY_APPLIED: u8 = 0x8B;
const OP_PARTIAL: u8 = 0x8C;

// partial-aggregate state tags
const AGG_COUNT: u8 = 0;
const AGG_SUM: u8 = 1;
const AGG_AVG: u8 = 2;
const AGG_MIN: u8 = 3;
const AGG_MAX: u8 = 4;
// Tag 5 is retired: a peer that still sends it is refused, not misread.

// error relay tags
const ERR_OTHER: u8 = 0;
const ERR_TOO_LONG: u8 = 1;
const ERR_ARITHMETIC: u8 = 2;
const ERR_INJECTED: u8 = 3;
const ERR_NET: u8 = 4;
const ERR_DEADLINE: u8 = 5;
const ERR_RESOURCE: u8 = 6;

fn malformed(what: &str) -> Error {
    Error::net_permanent("decode message", format!("malformed {what}"))
}

fn read_usize(r: &mut Reader<'_>) -> Result<usize, Error> {
    Ok(r.u64()? as usize)
}

// ---------------------------------------------------------------------
// error relay

fn put_error(buf: &mut Vec<u8>, e: &Error) {
    match e {
        Error::StatementTooLong { len, max } => {
            buf.push(ERR_TOO_LONG);
            put_u64(buf, *len as u64);
            put_u64(buf, *max as u64);
        }
        Error::Arithmetic(m) => {
            buf.push(ERR_ARITHMETIC);
            put_str(buf, m);
        }
        Error::Injected {
            transient,
            applied,
            statement,
        } => {
            buf.push(ERR_INJECTED);
            put_bool(buf, *transient);
            put_bool(buf, *applied);
            put_u64(buf, *statement as u64);
        }
        Error::Net {
            context,
            message,
            transient,
        } => {
            buf.push(ERR_NET);
            put_str(buf, context);
            put_str(buf, message);
            put_bool(buf, *transient);
        }
        Error::Deadline { context, budget_ms } => {
            buf.push(ERR_DEADLINE);
            put_str(buf, context);
            put_u64(buf, *budget_ms);
        }
        Error::ResourceExhausted {
            context,
            used_bytes,
            budget_bytes,
        } => {
            buf.push(ERR_RESOURCE);
            put_str(buf, context);
            put_u64(buf, *used_bytes);
            put_u64(buf, *budget_bytes);
        }
        // Re-relaying an already-relayed error must not stack
        // "server error:" prefixes.
        Error::Remote(m) => {
            buf.push(ERR_OTHER);
            put_str(buf, m);
        }
        other => {
            buf.push(ERR_OTHER);
            put_str(buf, &other.to_string());
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<Error, Error> {
    Ok(match r.u8()? {
        ERR_TOO_LONG => Error::StatementTooLong {
            len: read_usize(r)?,
            max: read_usize(r)?,
        },
        ERR_ARITHMETIC => Error::Arithmetic(r.str()?),
        ERR_INJECTED => Error::Injected {
            transient: r.bool()?,
            applied: r.bool()?,
            statement: read_usize(r)?,
        },
        ERR_NET => Error::Net {
            context: r.str()?,
            message: r.str()?,
            transient: r.bool()?,
        },
        ERR_DEADLINE => Error::Deadline {
            context: r.str()?,
            budget_ms: r.u64()?,
        },
        ERR_RESOURCE => Error::ResourceExhausted {
            context: r.str()?,
            used_bytes: r.u64()?,
            budget_bytes: r.u64()?,
        },
        ERR_OTHER => Error::Remote(r.str()?),
        _ => return Err(malformed("error tag")),
    })
}

// ---------------------------------------------------------------------
// composite payloads

/// Rows travel as a counted sequence of counted value sequences (the
/// wire has no schema to take an arity from).
fn put_rows<R: AsRef<[Value]>>(buf: &mut Vec<u8>, rows: &[R]) {
    put_seq(buf, rows.iter(), |buf, row| {
        put_seq(buf, row.as_ref().iter(), put_value)
    });
}

fn read_rows<R: From<Vec<Value>>>(r: &mut Reader<'_>) -> Result<Vec<R>, Error> {
    r.seq(|r| Ok(r.seq(read_value)?.into()))
}

fn put_query_result(buf: &mut Vec<u8>, q: &QueryResult) {
    put_seq(buf, q.columns.iter(), |buf, c| put_str(buf, c));
    put_rows(buf, &q.rows);
    put_u64(buf, q.rows_affected as u64);
}

fn read_query_result(r: &mut Reader<'_>) -> Result<QueryResult, Error> {
    Ok(QueryResult {
        columns: r.seq(|r| r.str())?,
        rows: read_rows(r)?,
        rows_affected: read_usize(r)?,
    })
}

/// An exact sum travels as finite doubles whose sum it is — an inline
/// expansion's components as they are, a wide sum's canonical list —
/// and flags, the doubles as raw IEEE-754 bits: one reconstructed from
/// anything lossier would destroy the exact-sum invariant.
fn put_exact_sum(buf: &mut Vec<u8>, acc: &ExactSum) {
    let (comps, has_nan, pos_inf, neg_inf) = acc.to_parts();
    put_seq(buf, comps.iter(), |buf, &c| put_f64(buf, c));
    put_bool(buf, has_nan);
    put_bool(buf, pos_inf);
    put_bool(buf, neg_inf);
}

fn read_exact_sum(r: &mut Reader<'_>) -> Result<ExactSum, Error> {
    let comps = r.seq(|r| r.f64())?;
    Ok(ExactSum::from_parts(
        &comps,
        r.bool()?,
        r.bool()?,
        r.bool()?,
    ))
}

fn put_agg_cell(buf: &mut Vec<u8>, cell: AggCell<'_>) {
    match cell {
        AggCell::Count(n) => {
            buf.push(AGG_COUNT);
            put_u64(buf, n);
        }
        AggCell::Sum(acc, count, all_int) => {
            buf.push(AGG_SUM);
            put_exact_sum(buf, acc);
            put_u64(buf, count);
            put_bool(buf, all_int);
        }
        AggCell::Avg(acc, count) => {
            buf.push(AGG_AVG);
            put_exact_sum(buf, acc);
            put_u64(buf, count);
        }
        AggCell::Min(col, row) => {
            buf.push(AGG_MIN);
            put_opt_value(buf, &best_value(col, row));
        }
        AggCell::Max(col, row) => {
            buf.push(AGG_MAX);
            put_opt_value(buf, &best_value(col, row));
        }
    }
}

/// A MIN or MAX accumulator's value as the wire carries it: `None` for
/// a group that saw no non-NULL input.
fn best_value(col: &Column, row: usize) -> Option<Value> {
    Some(col.value(row)).filter(|v| !v.is_null())
}

/// Read one accumulator written by [`put_agg_cell`] into the open group
/// of `partial`.
fn read_agg_cell(r: &mut Reader<'_>, partial: &mut PartialBuilder) -> Result<(), Error> {
    // A MIN or MAX value as the one-row column it is absorbed from.
    let best = |r: &mut Reader<'_>| {
        let v = read_opt_value(r)?.unwrap_or(Value::Null);
        Ok::<_, Error>(Column::from_values(vec![v]))
    };
    match r.u8()? {
        AGG_COUNT => partial.cell(AggCell::Count(r.u64()?)),
        AGG_SUM => {
            let acc = read_exact_sum(r)?;
            partial.cell(AggCell::Sum(&acc, r.u64()?, r.bool()?))
        }
        AGG_AVG => {
            let acc = read_exact_sum(r)?;
            partial.cell(AggCell::Avg(&acc, r.u64()?))
        }
        AGG_MIN => partial.cell(AggCell::Min(&best(r)?, 0)),
        AGG_MAX => partial.cell(AggCell::Max(&best(r)?, 0)),
        _ => Err(malformed("aggregate state tag")),
    }
}

/// A partial result travels group by group: key, then accumulators.
fn put_partial_result(buf: &mut Vec<u8>, p: &PartialAggResult) {
    let groups = (0..p.group_count()).map(|g| p.group(g));
    put_seq(buf, groups, |buf, (key, cells)| {
        put_seq(buf, key.iter(), put_value);
        put_seq(buf, cells, put_agg_cell);
    });
}

fn read_partial_result(r: &mut Reader<'_>) -> Result<PartialAggResult, Error> {
    let mut partial = PartialBuilder::default();
    r.seq(|r| {
        partial.key(r.seq(read_value)?)?;
        r.seq(|r| read_agg_cell(r, &mut partial))
    })?;
    partial.finish()
}

fn put_limits(buf: &mut Vec<u8>, l: &Limits) {
    put_u64(buf, l.max_terms as u64);
    put_u64(buf, l.max_depth as u64);
    put_u64(buf, l.max_columns as u64);
    put_u64(buf, l.max_tables as u64);
}

fn read_limits(r: &mut Reader<'_>) -> Result<Limits, Error> {
    Ok(Limits {
        max_terms: read_usize(r)?,
        max_depth: read_usize(r)?,
        max_columns: read_usize(r)?,
        max_tables: read_usize(r)?,
    })
}

fn put_catalog(buf: &mut Vec<u8>, cat: &SymbolicCatalog) {
    // Deterministic order keeps encodings reproducible (and testable).
    let mut tables: Vec<_> = cat.tables().collect();
    tables.sort_by_key(|(n, _)| n.to_string());
    put_seq(buf, tables.into_iter(), |buf, (name, schema)| {
        put_str(buf, name);
        put_schema(buf, schema);
    });
}

fn read_catalog(r: &mut Reader<'_>) -> Result<SymbolicCatalog, Error> {
    let mut cat = SymbolicCatalog::new();
    for (name, schema) in r.seq(|r| Ok((r.str()?, read_schema(r)?)))? {
        cat.insert(&name, schema);
    }
    Ok(cat)
}

/// Statement kinds by wire tag. Stable numbers — append only.
const KINDS: [Option<StatementKind>; 8] = [
    None,
    Some(StatementKind::CreateTable),
    Some(StatementKind::DropTable),
    Some(StatementKind::Insert),
    Some(StatementKind::Update),
    Some(StatementKind::Delete),
    Some(StatementKind::Select),
    Some(StatementKind::Explain),
];

fn put_metrics_entry(buf: &mut Vec<u8>, m: &ExecMetrics) {
    let tag = KINDS.iter().position(|k| *k == m.kind);
    buf.push(tag.expect("every kind has a tag") as u8);
    put_seq(buf, m.scans.iter(), |buf, s| {
        put_str(buf, &s.table);
        put_u64(buf, s.rows as u64);
        put_bool(buf, s.build);
    });
    put_u64(buf, m.rows_produced as u64);
    put_u64(buf, m.rows_inserted as u64);
    put_u64(buf, m.rows_updated as u64);
    put_u64(buf, m.rows_deleted as u64);
    put_u64(buf, m.join_build_rows);
    put_u64(buf, m.join_probe_rows);
    put_u64(buf, m.groups as u64);
    put_u64(buf, m.expr_evals);
    put_u64(buf, m.peak_mem_bytes);
    put_u64(buf, m.plan_time.as_nanos() as u64);
    put_u64(buf, m.elapsed.as_nanos() as u64);
}

fn read_metrics_entry(r: &mut Reader<'_>) -> Result<ExecMetrics, Error> {
    let kind = *KINDS
        .get(r.u8()? as usize)
        .ok_or_else(|| malformed("statement kind tag"))?;
    let scans = r.seq(|r| {
        Ok(ScanMetric {
            table: r.str()?,
            rows: read_usize(r)?,
            build: r.bool()?,
        })
    })?;
    Ok(ExecMetrics {
        kind,
        scans,
        rows_produced: read_usize(r)?,
        rows_inserted: read_usize(r)?,
        rows_updated: read_usize(r)?,
        rows_deleted: read_usize(r)?,
        join_build_rows: r.u64()?,
        join_probe_rows: r.u64()?,
        groups: read_usize(r)?,
        expr_evals: r.u64()?,
        peak_mem_bytes: r.u64()?,
        plan_time: Duration::from_nanos(r.u64()?),
        elapsed: Duration::from_nanos(r.u64()?),
    })
}

// ---------------------------------------------------------------------
// top-level encode/decode

impl Request {
    /// Serialize to a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello {
                version,
                auth_token,
                namespace,
                resume_token,
            } => {
                buf.push(OP_HELLO);
                put_u32(&mut buf, *version);
                put_str(&mut buf, auth_token);
                put_str(&mut buf, namespace);
                put_str(&mut buf, resume_token);
            }
            Request::Query { meta, sql } => {
                buf.push(OP_QUERY);
                put_meta(&mut buf, meta);
                put_str(&mut buf, sql);
            }
            Request::ExecutePartial { meta, sql } => {
                buf.push(OP_EXECUTE_PARTIAL);
                put_meta(&mut buf, meta);
                put_str(&mut buf, sql);
            }
            Request::Prepare { statements } => {
                buf.push(OP_PREPARE);
                put_seq(&mut buf, statements.iter(), |buf, s| put_str(buf, s));
            }
            Request::ExecutePrepared { meta, id } => {
                buf.push(OP_EXECUTE_PREPARED);
                put_meta(&mut buf, meta);
                put_u64(&mut buf, *id);
            }
            Request::ClearPrepared => buf.push(OP_CLEAR_PREPARED),
            Request::BulkInsert { meta, table, rows } => {
                buf.push(OP_BULK_INSERT);
                put_meta(&mut buf, meta);
                put_str(&mut buf, table);
                put_rows(&mut buf, rows);
            }
            Request::TableRows { table } => {
                buf.push(OP_TABLE_ROWS);
                put_str(&mut buf, table);
            }
            Request::HasTable { table } => {
                buf.push(OP_HAS_TABLE);
                put_str(&mut buf, table);
            }
            Request::CatalogSnapshot => buf.push(OP_CATALOG_SNAPSHOT),
            Request::SetMetrics { on } => {
                buf.push(OP_SET_METRICS);
                put_bool(&mut buf, *on);
            }
            Request::MetricsLen => buf.push(OP_METRICS_LEN),
            Request::MetricsSince { from } => {
                buf.push(OP_METRICS_SINCE);
                put_u64(&mut buf, *from);
            }
            Request::NoteRetry => buf.push(OP_NOTE_RETRY),
            Request::Cancel { session } => {
                buf.push(OP_CANCEL);
                put_u64(&mut buf, *session);
            }
            Request::Goodbye => buf.push(OP_GOODBYE),
        }
        buf
    }

    /// Parse a frame payload; rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, Error> {
        let mut r = Reader::new(payload, "wire request");
        let req = match r.u8()? {
            OP_HELLO => Request::Hello {
                version: r.u32()?,
                auth_token: r.str()?,
                namespace: r.str()?,
                resume_token: r.str()?,
            },
            OP_QUERY => Request::Query {
                meta: read_meta(&mut r)?,
                sql: r.str()?,
            },
            OP_EXECUTE_PARTIAL => Request::ExecutePartial {
                meta: read_meta(&mut r)?,
                sql: r.str()?,
            },
            OP_PREPARE => Request::Prepare {
                statements: r.seq(|r| r.str())?,
            },
            OP_EXECUTE_PREPARED => Request::ExecutePrepared {
                meta: read_meta(&mut r)?,
                id: r.u64()?,
            },
            OP_CLEAR_PREPARED => Request::ClearPrepared,
            OP_BULK_INSERT => Request::BulkInsert {
                meta: read_meta(&mut r)?,
                table: r.str()?,
                rows: read_rows(&mut r)?,
            },
            OP_TABLE_ROWS => Request::TableRows { table: r.str()? },
            OP_HAS_TABLE => Request::HasTable { table: r.str()? },
            OP_CATALOG_SNAPSHOT => Request::CatalogSnapshot,
            OP_SET_METRICS => Request::SetMetrics { on: r.bool()? },
            OP_METRICS_LEN => Request::MetricsLen,
            OP_METRICS_SINCE => Request::MetricsSince { from: r.u64()? },
            OP_NOTE_RETRY => Request::NoteRetry,
            OP_CANCEL => Request::Cancel { session: r.u64()? },
            OP_GOODBYE => Request::Goodbye,
            _ => return Err(malformed("request opcode")),
        };
        r.end()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloAck {
                version,
                session,
                max_statement_len,
                limits,
                description,
                resume_token,
            } => {
                buf.push(OP_HELLO_ACK);
                put_u32(&mut buf, *version);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *max_statement_len);
                put_limits(&mut buf, limits);
                put_str(&mut buf, description);
                put_str(&mut buf, resume_token);
            }
            Response::Ok => buf.push(OP_OK),
            Response::Bool(b) => {
                buf.push(OP_BOOL);
                put_bool(&mut buf, *b);
            }
            Response::Count(n) => {
                buf.push(OP_COUNT);
                put_u64(&mut buf, *n);
            }
            Response::Rows(q) => {
                buf.push(OP_ROWS);
                put_query_result(&mut buf, q);
            }
            Response::Err(e) => {
                buf.push(OP_ERR);
                put_error(&mut buf, e);
            }
            Response::PreparedIds(ids) => {
                buf.push(OP_PREPARED_IDS);
                put_seq(&mut buf, ids.iter(), |buf, &id| put_u64(buf, id));
            }
            Response::PrepareErr { index, error } => {
                buf.push(OP_PREPARE_ERR);
                put_u64(&mut buf, *index);
                put_error(&mut buf, error);
            }
            Response::Catalog(cat) => {
                buf.push(OP_CATALOG);
                put_catalog(&mut buf, cat);
            }
            Response::Metrics(entries) => {
                buf.push(OP_METRICS);
                put_seq(&mut buf, entries.iter(), put_metrics_entry);
            }
            Response::Partial(p) => {
                buf.push(OP_PARTIAL);
                put_partial_result(&mut buf, p);
            }
            Response::ReplayApplied => buf.push(OP_REPLAY_APPLIED),
        }
        buf
    }

    /// Parse a frame payload; rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, Error> {
        let mut r = Reader::new(payload, "wire response");
        let resp = match r.u8()? {
            OP_HELLO_ACK => Response::HelloAck {
                version: r.u32()?,
                session: r.u64()?,
                max_statement_len: r.u64()?,
                limits: read_limits(&mut r)?,
                description: r.str()?,
                resume_token: r.str()?,
            },
            OP_OK => Response::Ok,
            OP_BOOL => Response::Bool(r.bool()?),
            OP_COUNT => Response::Count(r.u64()?),
            OP_ROWS => Response::Rows(read_query_result(&mut r)?),
            OP_ERR => Response::Err(read_error(&mut r)?),
            OP_PREPARED_IDS => Response::PreparedIds(r.seq(|r| r.u64())?),
            OP_PREPARE_ERR => Response::PrepareErr {
                index: r.u64()?,
                error: read_error(&mut r)?,
            },
            OP_CATALOG => Response::Catalog(read_catalog(&mut r)?),
            OP_METRICS => Response::Metrics(r.seq(read_metrics_entry)?),
            OP_PARTIAL => Response::Partial(read_partial_result(&mut r)?),
            OP_REPLAY_APPLIED => Response::ReplayApplied,
            _ => return Err(malformed("response opcode")),
        };
        r.end()?;
        Ok(resp)
    }
}

/// Responses don't implement `PartialEq` for `Catalog` comparison via
/// schema identity alone, so tests compare re-encodings; this helper
/// exposes that as a first-class equivalence.
pub fn same_encoding(a: &Response, b: &Response) -> bool {
    a.encode() == b.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::{Column, Schema};

    fn roundtrip_req(req: Request) {
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_resp(resp: Response) {
        let back = Response::decode(&resp.encode()).unwrap();
        assert!(same_encoding(&back, &resp), "{resp:?} vs {back:?}");
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
            auth_token: "sekrit".into(),
            namespace: "run1_".into(),
            resume_token: "tok-42".into(),
        });
        roundtrip_req(Request::Query {
            meta: StmtMeta {
                seq: 3,
                deadline_ms: 1500,
            },
            sql: "SELECT 1".into(),
        });
        roundtrip_req(Request::Prepare {
            statements: vec!["DELETE FROM c".into(), "INSERT INTO c VALUES (1)".into()],
        });
        roundtrip_req(Request::ExecutePrepared {
            meta: StmtMeta::seq(8),
            id: 7,
        });
        roundtrip_req(Request::ClearPrepared);
        roundtrip_req(Request::BulkInsert {
            meta: StmtMeta::seq(9),
            table: "z".into(),
            rows: vec![
                vec![Value::Int(1), Value::Double(0.5), Value::Null],
                vec![
                    Value::Int(2),
                    Value::Double(f64::NEG_INFINITY),
                    Value::Str("x".into()),
                ],
            ],
        });
        roundtrip_req(Request::TableRows { table: "y".into() });
        roundtrip_req(Request::HasTable { table: "w".into() });
        roundtrip_req(Request::CatalogSnapshot);
        roundtrip_req(Request::SetMetrics { on: true });
        roundtrip_req(Request::MetricsLen);
        roundtrip_req(Request::MetricsSince { from: 42 });
        roundtrip_req(Request::NoteRetry);
        roundtrip_req(Request::Cancel { session: 3 });
        roundtrip_req(Request::Goodbye);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::HelloAck {
            version: 2,
            session: 9,
            max_statement_len: 1 << 20,
            limits: Limits::default(),
            description: "sqlem-server".into(),
            resume_token: "tok-9".into(),
        });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::ReplayApplied);
        roundtrip_resp(Response::Bool(true));
        roundtrip_resp(Response::Count(12345));
        roundtrip_resp(Response::Rows(QueryResult {
            columns: vec!["llh".into()],
            rows: vec![vec![Value::Double(-1234.5678901234567)].into_boxed_slice()],
            rows_affected: 1,
        }));
        roundtrip_resp(Response::PreparedIds(vec![0, 1, 2]));
        roundtrip_resp(Response::Metrics(vec![ExecMetrics {
            kind: Some(StatementKind::Update),
            scans: vec![ScanMetric {
                table: "yd".into(),
                rows: 1000,
                build: true,
            }],
            rows_produced: 0,
            rows_inserted: 0,
            rows_updated: 1000,
            rows_deleted: 0,
            join_build_rows: 8,
            join_probe_rows: 1000,
            groups: 0,
            expr_evals: 4000,
            peak_mem_bytes: 65536,
            plan_time: Duration::from_micros(120),
            elapsed: Duration::from_millis(3),
        }]));
    }

    #[test]
    fn error_relay_preserves_structure_where_it_matters() {
        // StatementTooLong must survive for §3.3 purpose attribution.
        let e = roundtrip_err(Error::StatementTooLong { len: 99, max: 10 });
        assert!(matches!(e, Error::StatementTooLong { len: 99, max: 10 }));
        // Arithmetic must survive for degenerate-cluster recovery.
        let e = roundtrip_err(Error::Arithmetic("division by zero".into()));
        assert!(matches!(e, Error::Arithmetic(_)));
        // Injected transients must stay transient for the retry policy.
        let e = roundtrip_err(Error::Injected {
            transient: true,
            applied: false,
            statement: 4,
        });
        assert!(e.is_transient());
        // Deadline overruns must survive typed (transient, actionable).
        let e = roundtrip_err(Error::deadline("lock wait", 250));
        assert!(matches!(e, Error::Deadline { budget_ms: 250, .. }));
        assert!(e.is_transient());
        // Memory-governor rejections must survive typed and transient
        // so the remote driver's degradation ladder can react.
        let e = roundtrip_err(Error::resource_exhausted("join build", 2048, 1024));
        match &e {
            Error::ResourceExhausted {
                used_bytes: 2048,
                budget_bytes: 1024,
                context,
            } => assert_eq!(context, "join build"),
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert!(e.is_transient());
        // Everything else flattens to Remote with the rendered text.
        let e = roundtrip_err(Error::UnknownTable("nope".into()));
        match &e {
            Error::Remote(m) => assert!(m.contains("nope"), "{m}"),
            other => panic!("expected Remote, got {other:?}"),
        }
        assert!(!e.is_transient());
        // Relaying a relay must not stack prefixes.
        let twice = roundtrip_err(e);
        match twice {
            Error::Remote(m) => assert_eq!(m.matches("server error").count(), 0, "{m}"),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    fn roundtrip_err(e: Error) -> Error {
        match Response::decode(&Response::Err(e).encode()).unwrap() {
            Response::Err(e) => e,
            other => panic!("expected Err, got {other:?}"),
        }
    }

    #[test]
    fn catalog_roundtrips_schemas() {
        use sqlengine::DataType;
        let mut cat = SymbolicCatalog::new();
        cat.insert(
            "z",
            Schema::new(
                vec![
                    Column::new("rid", DataType::BigInt),
                    Column::new("y1", DataType::Double),
                ],
                &["rid"],
            )
            .unwrap(),
        );
        cat.insert(
            "names",
            Schema::new(vec![Column::new("s", DataType::Varchar)], &[]).unwrap(),
        );
        let resp = Response::Catalog(cat);
        let back = Response::decode(&resp.encode()).unwrap();
        let Response::Catalog(cat2) = &back else {
            panic!("expected Catalog");
        };
        assert!(cat2.contains("z"));
        assert!(cat2.contains("names"));
        assert!(same_encoding(&resp, &back));
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let full = Request::BulkInsert {
            meta: StmtMeta::seq(5),
            table: "z".into(),
            rows: vec![vec![Value::Int(1), Value::Str("abc".into())]],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Request::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    /// Un-finalized accumulators as the engine itself builds them — one
    /// group per awkward regime: a three-component expansion from a
    /// catastrophic cancellation, a pair hovering beyond the f64 range
    /// (kept uncombined), a NULL key and an absorbed `+∞`.
    fn engine_partial() -> PartialAggResult {
        let mut db = sqlengine::Database::new();
        db.execute("CREATE TABLE t (g BIGINT, x DOUBLE, n BIGINT, s VARCHAR)")
            .unwrap();
        db.execute(
            "INSERT INTO t VALUES \
             (1, 1.0E100, 3, 'b'), (1, 1.0, 4, 'a'), (1, -1.0E100, 5, 'c'), (1, 0.1, NULL, NULL), \
             (1, 3.0E-200, 7, 'a'), (2, 1.0E308, 1, 'z'), (2, 1.0E308, 2, 'y'), (2, -0.0, 3, 'y'), \
             (NULL, 2.5, 9, 'n'), (NULL, NULL, NULL, NULL), \
             (3, 1.0E308 * 10.0, 1, 'i'), (3, 0.5, 1, 'j')",
        )
        .unwrap();
        db.execute_partial(
            "SELECT g, COUNT(*), SUM(x), AVG(x), MIN(s), MAX(x), SUM(n) FROM t GROUP BY g",
        )
        .unwrap()
    }

    /// `Response::Partial(engine_partial()).encode()` as the build before
    /// the accumulator and its transport form became one type emitted it
    /// (re-recorded without the query's dropped moment aggregates; no
    /// other cell moved).
    const PARENT_PARTIAL_FRAME: &str = "\
         8c0400000001000000010100000000000000060000000005000000000000000103000000c139fb8f\
         ed5e821600000000000098bc9a9999999999f13f0000000500000000000000000203000000c139fb\
         8fed5e821600000000000098bc9a9999999999f13f00000005000000000000000301030100000061\
         0401027dc39425ad49b2540101000000000000000000334000000004000000000000000101000000\
         010200000000000000060000000003000000000000000102000000a0c8eb85f3cce17fa0c8eb85f3\
         cce17f0000000300000000000000000202000000a0c8eb85f3cce17fa0c8eb85f3cce17f00000003\
         000000000000000301030100000079040102a0c8eb85f3cce17f0101000000000000000000184000\
         00000300000000000000010100000000060000000002000000000000000101000000000000000000\
         04400000000100000000000000000201000000000000000000044000000001000000000000000301\
         03010000006e04010200000000000004400101000000000000000000224000000001000000000000\
         000101000000010300000000000000060000000002000000000000000101000000000000000000e0\
         3f0001000200000000000000000201000000000000000000e03f0001000200000000000000030103\
         0100000069040102000000000000f07f010100000000000000000000400000000200000000000000\
         01";

    #[test]
    fn partial_aggregates_roundtrip_bit_exact() {
        roundtrip_req(Request::ExecutePartial {
            meta: StmtMeta {
                seq: 11,
                deadline_ms: 2500,
            },
            sql: "SELECT j, SUM(w) FROM gmm GROUP BY j".into(),
        });
        let resp = Response::Partial(engine_partial());
        let back = Response::decode(&resp.encode()).unwrap();
        let Response::Partial(p2) = back else {
            panic!("expected Partial");
        };
        // -0.0 passes PartialEq as 0.0; bit-exactness is equality of
        // encodings.
        assert!(same_encoding(&resp, &Response::Partial(p2)));
    }

    #[test]
    fn parent_build_partial_frame_is_still_the_wire_format() {
        let pinned: Vec<u8> = (0..PARENT_PARTIAL_FRAME.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PARENT_PARTIAL_FRAME[i..i + 2], 16).unwrap())
            .collect();
        // Decoding keeps every expansion component as it arrived, so the
        // frame re-encodes to the same bytes...
        assert_eq!(Response::decode(&pinned).unwrap().encode(), pinned);
        // ...and a shard of this build emits exactly what the parent did.
        assert_eq!(Response::Partial(engine_partial()).encode(), pinned);
    }

    #[test]
    fn truncated_partial_payloads_are_rejected() {
        let full = Response::Partial(engine_partial()).encode();
        for cut in 0..full.len() {
            assert!(
                Response::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Request::Goodbye.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
        let mut buf = Response::Ok.encode();
        buf.push(0);
        assert!(Response::decode(&buf).is_err());
    }
}
