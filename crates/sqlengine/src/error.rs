//! Error types for the SQL engine.
//!
//! Every fallible public operation returns [`Result<T>`]. Errors carry enough
//! context (token positions, table/column names) to diagnose generated SQL,
//! which matters here because most statements this engine sees are produced
//! by the SQLEM code generators rather than typed by a human.

use std::fmt;

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, Error>;

/// All errors the engine can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The lexer met a character it cannot start a token with.
    Lex {
        /// Byte offset in the statement.
        pos: usize,
        /// Human-readable description.
        message: String,
    },
    /// The parser met an unexpected token or ran out of input.
    Parse {
        /// Byte offset of the offending token.
        pos: usize,
        /// Human-readable description.
        message: String,
    },
    /// A statement exceeded the configured maximum length.
    ///
    /// This mirrors the real-world DBMS parser limits that motivate the
    /// paper's hybrid strategy (SQLEM §1.3, §3.3).
    StatementTooLong {
        /// Actual statement length in bytes.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// Referenced table does not exist.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Referenced column does not exist (optionally qualified).
    UnknownColumn(String),
    /// Two columns in a CREATE TABLE share a name, or a SELECT output list
    /// repeats a name where uniqueness is required.
    DuplicateColumn(String),
    /// INSERT arity or SELECT arity does not match the target table.
    ArityMismatch {
        /// Destination table.
        table: String,
        /// Columns the table has.
        expected: usize,
        /// Values supplied.
        actual: usize,
    },
    /// A value could not be coerced to the column's declared type.
    TypeMismatch {
        /// What the engine was doing when the mismatch surfaced.
        context: String,
    },
    /// Primary-key uniqueness violation on insert.
    DuplicateKey {
        /// Destination table.
        table: String,
    },
    /// An insert would take a table past the most rows one can hold (row
    /// positions are 32-bit); nothing was inserted.
    TableFull {
        /// Destination table.
        table: String,
        /// The most rows a table holds.
        max_rows: usize,
    },
    /// A GROUP BY met more distinct keys than a group table can number
    /// (group numbers are 32-bit, as row positions are).
    GroupTableFull {
        /// The most groups one statement holds.
        max_groups: usize,
    },
    /// Division by zero or another runtime arithmetic fault in strict mode.
    Arithmetic(String),
    /// The statement cannot be planned, or semantic analysis rejected
    /// its plan, before execution (see [`crate::plan`],
    /// [`crate::analyze`]). Carries the clause, the kind of defect and —
    /// when the source text was available — the byte position of the
    /// offending token.
    Analyze(crate::analyze::AnalyzeError),
    /// A scripted fault from the [`crate::fault`] facility fired on this
    /// statement. `transient` faults model failures that go away on
    /// retry (deadlock victim, timeout); permanent ones reproduce
    /// deterministically. `applied` is true when the statement's effects
    /// committed before the fault fired ([`crate::fault::FaultSite::AfterExec`],
    /// the lost-ack model) — a bare retry is then *not* safe.
    Injected {
        /// Retrying may succeed.
        transient: bool,
        /// The statement's effects were applied before the fault fired.
        applied: bool,
        /// 0-based statement sequence number since plan installation.
        statement: usize,
    },
    /// A filesystem operation of the durability layer failed (open,
    /// append, sync, rename). Carries the operation context and the OS
    /// error text — kept as strings so [`Error`] stays `Clone` +
    /// `PartialEq`.
    Io {
        /// What the engine was doing ("open wal", "sync wal", …).
        context: String,
        /// The underlying OS error, stringified.
        message: String,
    },
    /// Durable state failed validation on recovery: a write-ahead-log
    /// record or snapshot whose checksum does not match its contents, an
    /// undecodable record, or a replayed statement that no longer
    /// applies. Never produced for a *torn tail* (an interrupted append
    /// at the end of the log) — those are unacknowledged writes and are
    /// silently discarded; `Corruption` means acknowledged state is
    /// damaged and recovering would silently diverge.
    Corruption {
        /// What failed validation and where.
        detail: String,
    },
    /// A network/wire failure between a remote client and the server
    /// (connect refused, connection reset, read/write timeout, protocol
    /// version or auth mismatch). `transient` marks failures a reconnect
    /// plus re-submission may fix — resets and timeouts — as opposed to
    /// handshake rejections, which reproduce deterministically.
    Net {
        /// What the client was doing ("connect", "send query", …).
        context: String,
        /// The underlying failure, stringified.
        message: String,
        /// Retrying (after a reconnect) may succeed.
        transient: bool,
    },
    /// A statement overran its wall-clock deadline: the client-propagated
    /// budget expired while the statement was waiting for the database
    /// lock or mid-execution. The statement's effects were **not**
    /// applied (execution aborts before the stage-then-commit swap).
    /// Transient by classification — a retry arrives with a fresh
    /// per-attempt budget and may succeed; when the *overall* retry
    /// budget is exhausted, the last `Deadline` error surfaces to the
    /// caller as the actionable diagnosis.
    Deadline {
        /// What was running when the budget expired ("lock wait",
        /// "table scan", …).
        context: String,
        /// The budget the statement was given, in milliseconds.
        budget_ms: u64,
    },
    /// A statement overran the configured memory budget: an allocating
    /// operator (join build side, GROUP BY table, staged DML buffer,
    /// bulk-load staging) would have pushed the tracked footprint past
    /// the limit. The statement's effects were **not** applied —
    /// execution aborts before the stage-then-commit swap, so a retry
    /// (typically after the caller sheds load or degrades its plan)
    /// observes exactly the state the failed attempt saw. Transient by
    /// classification for that reason.
    ResourceExhausted {
        /// The allocating operator that hit the wall ("join build",
        /// "group table", "staged insert", …).
        context: String,
        /// Tracked footprint in bytes at the moment of the failure,
        /// including the allocation that did not fit.
        used_bytes: u64,
        /// The budget that was exceeded, in bytes.
        budget_bytes: u64,
    },
    /// An error that happened inside a *remote* server, relayed verbatim
    /// over the wire. Variants a caller inspects structurally
    /// ([`Error::StatementTooLong`], [`Error::Arithmetic`],
    /// [`Error::Injected`], [`Error::Net`]) are reconstructed as
    /// themselves by the wire codec; everything else arrives as its
    /// rendered message wrapped in this variant, so the client sees the
    /// server's exact error text without the engine's full error surface
    /// having to cross the protocol. Never transient.
    Remote(String),
    /// Anything else (internal invariants, unsupported constructs).
    Unsupported(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            Error::Parse { pos, message } => write!(f, "parse error at byte {pos}: {message}"),
            Error::StatementTooLong { len, max } => write!(
                f,
                "statement length {len} exceeds the configured parser limit {max} \
                 (see EngineConfig::max_statement_len)"
            ),
            Error::UnknownTable(t) => write!(f, "unknown table: {t}"),
            Error::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            Error::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            Error::DuplicateColumn(c) => write!(f, "duplicate column name: {c}"),
            Error::ArityMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch inserting into {table}: table has {expected} columns, \
                 got {actual} values"
            ),
            Error::TypeMismatch { context } => write!(f, "type mismatch: {context}"),
            Error::DuplicateKey { table } => {
                write!(f, "primary key violation inserting into {table}")
            }
            Error::TableFull { table, max_rows } => {
                write!(
                    f,
                    "table {table} is full: a table holds at most {max_rows} rows"
                )
            }
            Error::GroupTableFull { max_groups } => {
                write!(
                    f,
                    "group table is full: a GROUP BY holds at most {max_groups} groups"
                )
            }
            Error::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            Error::Analyze(e) => write!(f, "semantic analysis: {e}"),
            Error::Injected {
                transient,
                applied,
                statement,
            } => write!(
                f,
                "injected {} fault on statement {statement}{}",
                if *transient { "transient" } else { "permanent" },
                if *applied { " (effects applied)" } else { "" },
            ),
            Error::Io { context, message } => write!(f, "io error ({context}): {message}"),
            Error::Net {
                context,
                message,
                transient,
            } => write!(
                f,
                "network error ({context}): {message}{}",
                if *transient { " (transient)" } else { "" }
            ),
            Error::Corruption { detail } => write!(f, "durable state corrupted: {detail}"),
            Error::Deadline { context, budget_ms } => {
                if *budget_ms == 0 {
                    write!(f, "deadline exceeded ({context}): statement budget expired")
                } else {
                    write!(
                        f,
                        "deadline exceeded ({context}): statement budget of {budget_ms} ms expired"
                    )
                }
            }
            Error::ResourceExhausted {
                context,
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "resource exhausted ({context}): {used_bytes} bytes needed, \
                 budget is {budget_bytes} bytes"
            ),
            Error::Remote(m) => write!(f, "server error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<crate::analyze::AnalyzeError> for Error {
    fn from(e: crate::analyze::AnalyzeError) -> Self {
        Error::Analyze(e)
    }
}

impl Error {
    /// Wrap a [`std::io::Error`] with the operation that hit it.
    pub fn io(context: impl Into<String>, e: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            message: e.to_string(),
        }
    }

    /// Build a [`Error::Corruption`] from a detail message.
    pub fn corruption(detail: impl Into<String>) -> Self {
        Error::Corruption {
            detail: detail.into(),
        }
    }

    /// The inner [`crate::analyze::AnalyzeError`], if this is a
    /// semantic-analysis rejection.
    pub fn as_analyze(&self) -> Option<&crate::analyze::AnalyzeError> {
        match self {
            Error::Analyze(e) => Some(e),
            _ => None,
        }
    }

    /// Build a transient [`Error::Net`] (reset/timeout class: a
    /// reconnect plus re-submission may succeed).
    pub fn net_transient(context: impl Into<String>, message: impl Into<String>) -> Self {
        Error::Net {
            context: context.into(),
            message: message.into(),
            transient: true,
        }
    }

    /// Build a permanent [`Error::Net`] (handshake rejection class:
    /// version/auth mismatches reproduce deterministically).
    pub fn net_permanent(context: impl Into<String>, message: impl Into<String>) -> Self {
        Error::Net {
            context: context.into(),
            message: message.into(),
            transient: false,
        }
    }

    /// Build a [`Error::Deadline`] from the execution context and the
    /// budget that expired.
    pub fn deadline(context: impl Into<String>, budget_ms: u64) -> Self {
        Error::Deadline {
            context: context.into(),
            budget_ms,
        }
    }

    /// Build a [`Error::ResourceExhausted`] from the allocating context,
    /// the footprint that did not fit, and the budget it exceeded.
    pub fn resource_exhausted(
        context: impl Into<String>,
        used_bytes: u64,
        budget_bytes: u64,
    ) -> Self {
        Error::ResourceExhausted {
            context: context.into(),
            used_bytes,
            budget_bytes,
        }
    }

    /// Is a retry of the failed statement worth attempting? Injected
    /// transient faults, transient wire failures (connection reset,
    /// I/O timeout), deadline overruns and memory-budget overruns
    /// qualify — a retry arrives with a fresh per-attempt deadline
    /// budget, and an exhausted memory budget may clear once concurrent
    /// load drains or the caller degrades its plan. Every organic
    /// engine error (parse, analysis, arity, duplicate key,
    /// arithmetic, …) is deterministic and will reproduce on retry.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::Injected {
                transient: true,
                ..
            } | Error::Net {
                transient: true,
                ..
            } | Error::Deadline { .. }
                | Error::ResourceExhausted { .. }
        )
    }

    /// Did the failing statement leave effects behind? True only for
    /// after-exec injected faults (the lost-ack model); every other
    /// error path leaves the target relation untouched thanks to the
    /// engine's atomic statement semantics.
    pub fn effects_applied(&self) -> bool {
        matches!(self, Error::Injected { applied: true, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::ArityMismatch {
            table: "Y".into(),
            expected: 3,
            actual: 2,
        };
        let s = e.to_string();
        assert!(s.contains('Y'));
        assert!(s.contains('3'));
        assert!(s.contains('2'));
    }

    #[test]
    fn statement_too_long_mentions_limit() {
        let e = Error::StatementTooLong {
            len: 70000,
            max: 65536,
        };
        assert!(e.to_string().contains("65536"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            Error::UnknownTable("T".into()),
            Error::UnknownTable("T".into())
        );
        assert_ne!(
            Error::UnknownTable("T".into()),
            Error::UnknownColumn("T".into())
        );
    }
}
