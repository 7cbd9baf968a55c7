//! Typed semantic errors with source positions.
//!
//! Everything wrong with a statement that can be told without its rows —
//! by the planner that resolves and compiles it, by the type pass over
//! the compiled plan, by the limits — is described by an
//! [`AnalyzeError`]: *what* is wrong ([`AnalyzeErrorKind`]), *where* in
//! the statement it sits ([`Clause`]), and — when the original SQL text
//! is available — the byte offset of the offending token, recovered by
//! re-lexing the source (the AST itself does not carry spans).

use std::fmt;

use crate::lexer::{lex, Token};

/// The statement clause an error was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// The SELECT projection list.
    Projection,
    /// The FROM clause.
    From,
    /// The WHERE clause.
    Where,
    /// The GROUP BY clause.
    GroupBy,
    /// The HAVING clause.
    Having,
    /// The ORDER BY clause.
    OrderBy,
    /// A VALUES row.
    Values,
    /// An UPDATE SET assignment.
    Set,
    /// A DDL statement body (CREATE/DROP TABLE).
    Ddl,
    /// The statement as a whole (complexity limits, arity).
    Statement,
}

impl Clause {
    /// The clause of item `j` of a SELECT's sink: the first `n_visible`
    /// items are the SELECT list, the rest hidden ORDER BY keys.
    pub fn of_item(j: usize, n_visible: usize) -> Clause {
        if j < n_visible {
            Clause::Projection
        } else {
            Clause::OrderBy
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Clause::Projection => "SELECT list",
            Clause::From => "FROM",
            Clause::Where => "WHERE",
            Clause::GroupBy => "GROUP BY",
            Clause::Having => "HAVING",
            Clause::OrderBy => "ORDER BY",
            Clause::Values => "VALUES",
            Clause::Set => "SET",
            Clause::Ddl => "DDL",
            Clause::Statement => "statement",
        };
        f.write_str(s)
    }
}

/// A complexity metric that can exceed its configured limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Total leaf terms (column references + literals) in the statement.
    Terms,
    /// Maximum expression nesting depth.
    Depth,
    /// Widest projection / column list.
    Columns,
    /// Number of tables in a FROM clause.
    Tables,
    /// Statement size in bytes.
    Bytes,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Metric::Terms => "term count",
            Metric::Depth => "expression depth",
            Metric::Columns => "column count",
            Metric::Tables => "FROM table count",
            Metric::Bytes => "statement bytes",
        };
        f.write_str(s)
    }
}

/// What exactly the analyzer rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeErrorKind {
    /// Referenced table does not exist (in the catalog or the symbolic
    /// replay).
    UnknownTable(String),
    /// Referenced column does not exist (optionally qualified).
    UnknownColumn(String),
    /// An unqualified column matches more than one FROM table.
    AmbiguousColumn(String),
    /// CREATE TABLE target already exists (without IF NOT EXISTS).
    DuplicateTable(String),
    /// Duplicate column in a CREATE TABLE, INSERT column list, or FROM
    /// visible-name set.
    DuplicateColumn(String),
    /// INSERT/SELECT arity does not match the target table.
    ArityMismatch {
        /// Destination table.
        table: String,
        /// Columns expected.
        expected: usize,
        /// Values supplied.
        actual: usize,
    },
    /// An expression can never evaluate/coerce at runtime.
    TypeMismatch {
        /// Human-readable description of the conflict.
        context: String,
    },
    /// An aggregate appeared where it is not allowed, or a non-grouped
    /// column escaped the GROUP BY list.
    AggregateMisuse(String),
    /// Call to a function the engine does not implement.
    UnknownFunction(String),
    /// Function called with the wrong number of arguments.
    WrongArity {
        /// Function name.
        function: String,
        /// Expected argument count, human readable ("1", "at least 1").
        expected: String,
        /// Arguments supplied.
        actual: usize,
    },
    /// A complexity metric exceeded its configured limit — the static
    /// prediction of the DBMS parser failures of SQLEM §3.1/§3.3.
    TooComplex {
        /// Which metric overflowed.
        metric: Metric,
        /// Measured value.
        value: usize,
        /// Configured limit.
        limit: usize,
    },
    /// Constructs the analyzer cannot prove safe.
    Unsupported(String),
}

impl AnalyzeErrorKind {
    /// The error for this defect found in `clause`. Name resolution,
    /// compilation and typing know *what* is wrong; the planner step
    /// that called them knows which clause it was compiling.
    pub fn at(self, clause: Clause) -> AnalyzeError {
        AnalyzeError::new(self, clause)
    }
}

/// What compiling or typing one expression returns, before the caller
/// says which clause the expression belongs to.
pub(crate) type Checked<T> = Result<T, AnalyzeErrorKind>;

/// What planning returns: the plan, or the one thing wrong with the
/// statement.
pub(crate) type Planned<T> = Result<T, AnalyzeError>;

/// A semantic error produced by the analyze pass, with position.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeError {
    /// What was rejected.
    pub kind: AnalyzeErrorKind,
    /// The clause it was found in.
    pub clause: Clause,
    /// Byte offset of the offending token in the original SQL, when the
    /// source text was available to the analyzer.
    pub pos: Option<usize>,
}

impl AnalyzeError {
    /// Build an error with no position (attached later via
    /// [`AnalyzeError::locate`]).
    pub fn new(kind: AnalyzeErrorKind, clause: Clause) -> Self {
        AnalyzeError {
            kind,
            clause,
            pos: None,
        }
    }

    /// The identifier worth searching for in the source text, if the
    /// error is about one.
    fn offender(&self) -> Option<&str> {
        match &self.kind {
            AnalyzeErrorKind::UnknownTable(n)
            | AnalyzeErrorKind::UnknownColumn(n)
            | AnalyzeErrorKind::AmbiguousColumn(n)
            | AnalyzeErrorKind::DuplicateTable(n)
            | AnalyzeErrorKind::DuplicateColumn(n)
            | AnalyzeErrorKind::UnknownFunction(n) => Some(n),
            AnalyzeErrorKind::WrongArity { function, .. } => Some(function),
            _ => None,
        }
    }

    /// Fill in `pos` by re-lexing `sql` and finding the first occurrence
    /// of the offending identifier (qualified names match an
    /// `ident . ident` token sequence). Best-effort: errors without an
    /// identifiable token keep `pos = None`.
    pub fn locate(mut self, sql: &str) -> Self {
        if self.pos.is_some() {
            return self;
        }
        if let Some(offender) = self.offender() {
            self.pos = locate_ident(sql, offender);
        }
        self
    }
}

/// Find the byte offset of `name` (possibly `table.column`) in `sql`.
fn locate_ident(sql: &str, name: &str) -> Option<usize> {
    let tokens = lex(sql).ok()?;
    let parts: Vec<String> = name.split('.').map(|p| p.to_ascii_lowercase()).collect();
    match parts.as_slice() {
        [single] => tokens.iter().find_map(|t| match &t.tok {
            Token::Ident(i) if i == single => Some(t.pos),
            _ => None,
        }),
        [table, column] => {
            tokens
                .windows(3)
                .find_map(|w| match (&w[0].tok, &w[1].tok, &w[2].tok) {
                    (Token::Ident(t), Token::Dot, Token::Ident(c)) if t == table && c == column => {
                        Some(w[0].pos)
                    }
                    _ => None,
                })
        }
        _ => None,
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in {}: ", self.clause)?;
        match &self.kind {
            AnalyzeErrorKind::UnknownTable(t) => write!(f, "unknown table {t}")?,
            AnalyzeErrorKind::UnknownColumn(c) => write!(f, "unknown column {c}")?,
            AnalyzeErrorKind::AmbiguousColumn(c) => write!(f, "ambiguous column reference {c}")?,
            AnalyzeErrorKind::DuplicateTable(t) => write!(f, "table already exists: {t}")?,
            AnalyzeErrorKind::DuplicateColumn(c) => write!(f, "duplicate column {c}")?,
            AnalyzeErrorKind::ArityMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for {table}: expected {expected} columns, got {actual}"
            )?,
            AnalyzeErrorKind::TypeMismatch { context } => write!(f, "type mismatch: {context}")?,
            AnalyzeErrorKind::AggregateMisuse(m) => write!(f, "{m}")?,
            AnalyzeErrorKind::UnknownFunction(n) => write!(f, "unknown function {n}()")?,
            AnalyzeErrorKind::WrongArity {
                function,
                expected,
                actual,
            } => write!(f, "{function}() takes {expected} argument(s), got {actual}")?,
            AnalyzeErrorKind::TooComplex {
                metric,
                value,
                limit,
            } => write!(f, "{metric} {value} exceeds the configured limit {limit}")?,
            AnalyzeErrorKind::Unsupported(m) => write!(f, "unsupported: {m}")?,
        }
        if let Some(pos) = self.pos {
            write!(f, " (at byte {pos})")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalyzeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_finds_unqualified_ident() {
        let e = AnalyzeError::new(
            AnalyzeErrorKind::UnknownColumn("missing".into()),
            Clause::Where,
        )
        .locate("SELECT rid FROM t WHERE missing > 1");
        assert_eq!(e.pos, Some(24));
        let s = e.to_string();
        assert!(s.contains("WHERE"), "{s}");
        assert!(s.contains("at byte 24"), "{s}");
    }

    #[test]
    fn locate_finds_qualified_ident() {
        let sql = "SELECT t.rid, t.bad FROM t";
        let e = AnalyzeError::new(
            AnalyzeErrorKind::UnknownColumn("t.bad".into()),
            Clause::Projection,
        )
        .locate(sql);
        assert_eq!(e.pos, Some(sql.find("t.bad").unwrap()));
    }

    #[test]
    fn locate_without_offender_is_none() {
        let e = AnalyzeError::new(
            AnalyzeErrorKind::TooComplex {
                metric: Metric::Terms,
                value: 100,
                limit: 10,
            },
            Clause::Statement,
        )
        .locate("SELECT 1");
        assert_eq!(e.pos, None);
    }
}
