//! Static script analysis: prove what a generated SQL script will do
//! before executing a single statement.
//!
//! SQLEM turns one EM iteration into dozens of generated statements
//! (paper §2.4–§2.6); a bug in the generator surfaces at runtime as a
//! leaked work table, a lost WAL record, or a cost blow-up. This module
//! is an *abstract interpreter* over a whole script: it threads a
//! symbolic catalog ([`crate::analyze::SymbolicCatalog`]) and a
//! symbolic table state ([`SymState`]) through every statement and
//! emits a typed [`ScriptReport`] containing
//!
//! * **symbolic scan derivation** — per-statement driver scans as
//!   closed-form [`Card`] polynomials in `(n, p, k)`, the quantity the
//!   engine's runtime `ExecMetrics` measures (§3.3 cost model);
//! * **lifecycle diagnostics** — work-table leaks, use-before-create,
//!   read-after-drop, double-create (the `lifecycle` module);
//! * **mutation classification** — each statement's mutating/read-only
//!   class is the WAL layer's own ([`crate::is_mutating`]),
//!   checked against the script author's annotation;
//! * **expression safety lints** — statement-size capacity overflow,
//!   division-by-zero reachability through the §2.5 guard idioms,
//!   non-finite literals (the `lints` module);
//! * **a steady-state proof** — the declared iteration span is replayed
//!   twice on the symbolic state; only when the second replay repeats
//!   the first exactly (same state, same scans) is the per-iteration
//!   derivation sound for *every* iteration, not just the first.
//!
//! The checker never executes anything and needs no data: callers
//! describe the externally loaded tables symbolically via
//! [`ScriptSpec::loads`] (e.g. "`z` has `n` rows with `n` distinct
//! `rid`") and get back exact per-iteration scan counts as functions of
//! `(n, p, k)`.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use crate::analyze::{AnalyzeError, Limits, SymbolicCatalog};
use crate::ast::Statement;
use crate::error::Error;
use crate::parser;
use crate::plan::plan_statement;

pub mod card;
mod interp;
mod lifecycle;
mod lints;

pub use card::Card;
pub use interp::{StmtEffect, SymState, TableCard};

/// One statement of a script, with its provenance.
#[derive(Debug, Clone)]
pub struct ScriptStmt {
    /// Generator-assigned purpose label (`e1`, `m-c`, `drop:yd`, …).
    pub purpose: String,
    /// The SQL text.
    pub sql: String,
    /// What the script author believes about mutation, if anything;
    /// checked against the WAL layer's classification.
    pub expected_mutating: Option<bool>,
}

impl ScriptStmt {
    /// A statement with no mutation expectation.
    pub fn new(purpose: impl Into<String>, sql: impl Into<String>) -> ScriptStmt {
        ScriptStmt {
            purpose: purpose.into(),
            sql: sql.into(),
            expected_mutating: None,
        }
    }
}

/// Symbolic contents of a table loaded outside the script (the bulk
/// load the driver performs through its own insert path).
#[derive(Debug, Clone)]
pub struct TableLoad {
    /// Table name.
    pub table: String,
    /// Symbolic row count.
    pub rows: Card,
    /// Known per-column distinct counts; unlisted columns default to
    /// the row count.
    pub distinct: Vec<(String, Card)>,
}

/// A script plus the symbolic facts needed to interpret it.
#[derive(Debug, Clone, Default)]
pub struct ScriptSpec {
    /// The statements, in execution order.
    pub statements: Vec<ScriptStmt>,
    /// `(index, load)` pairs: the load happens immediately *before*
    /// statement `index` executes.
    pub loads: Vec<(usize, TableLoad)>,
    /// Statement range executed once per EM iteration; triggers the
    /// steady-state replay and per-iteration scan derivation.
    pub iteration: Option<Range<usize>>,
    /// Table-name prefixes exempt from leak detection (checkpoints).
    pub persistent_prefixes: Vec<String>,
}

/// The environment a script is checked against.
#[derive(Debug, Clone)]
pub struct CheckEnv {
    /// Schemas live before the script starts.
    pub catalog: SymbolicCatalog,
    /// Complexity ceilings (a real parser's capacity, §3.3).
    pub limits: Limits,
    /// Maximum statement length in bytes; `0` disables the check.
    pub max_statement_len: usize,
}

impl Default for CheckEnv {
    fn default() -> CheckEnv {
        CheckEnv {
            catalog: SymbolicCatalog::new(),
            limits: Limits::default(),
            max_statement_len: 0,
        }
    }
}

/// Diagnostic severity. Only [`Severity::Error`] findings make
/// [`ScriptReport::ok`] false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Worth reporting, not grounds for rejection.
    Warning,
    /// The script is wrong; do not execute it.
    Error,
}

/// What a diagnostic is about.
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosticKind {
    /// The statement does not parse.
    Parse(String),
    /// The analyzer rejected the statement (unknown table/column,
    /// type error, complexity ceiling, …).
    Semantic(AnalyzeError),
    /// Statement text exceeds the configured parser capacity.
    TooLong {
        /// Actual length in bytes.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A script-created table is still live when the script ends.
    WorkTableLeak {
        /// The leaked table.
        table: String,
    },
    /// A table is referenced before the statement that creates it.
    UseBeforeCreate {
        /// The table.
        table: String,
    },
    /// A table is referenced after its `DROP TABLE`.
    ReadAfterDrop {
        /// The table.
        table: String,
    },
    /// Plain `CREATE TABLE` over a live table.
    DoubleCreate {
        /// The table.
        table: String,
    },
    /// The WAL layer's mutation class disagrees with the script
    /// author's annotation ([`ScriptStmt::expected_mutating`]).
    MutationMismatch {
        /// What the annotation says.
        expected: bool,
        /// What [`crate::is_mutating`] says.
        derived: bool,
    },
    /// A denominator that is literally zero.
    DivisionByZero {
        /// Rendered denominator expression.
        denominator: String,
    },
    /// A denominator that cannot be proven non-zero (reachable
    /// division by zero if the data cooperates).
    UnprovenDivisor {
        /// Rendered denominator expression.
        denominator: String,
    },
    /// A non-finite floating-point literal (`NaN`, `inf`).
    NonFiniteLiteral {
        /// Rendered literal.
        literal: String,
    },
    /// Replaying the iteration span did not reach a fixpoint, so no
    /// per-iteration cost derivation is sound.
    NonSteadyState {
        /// What kept changing.
        detail: String,
    },
}

impl DiagnosticKind {
    /// The severity this kind reports at.
    pub fn severity(&self) -> Severity {
        match self {
            DiagnosticKind::UnprovenDivisor { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticKind::Parse(m) => write!(f, "parse error: {m}"),
            DiagnosticKind::Semantic(e) => write!(f, "semantic error: {e}"),
            DiagnosticKind::TooLong { len, max } => {
                write!(f, "statement length {len} exceeds the parser limit {max}")
            }
            DiagnosticKind::WorkTableLeak { table } => {
                write!(f, "work table `{table}` is never dropped")
            }
            DiagnosticKind::UseBeforeCreate { table } => {
                write!(f, "table `{table}` is used before it is created")
            }
            DiagnosticKind::ReadAfterDrop { table } => {
                write!(f, "table `{table}` is used after being dropped")
            }
            DiagnosticKind::DoubleCreate { table } => {
                write!(f, "table `{table}` is created twice")
            }
            DiagnosticKind::MutationMismatch { expected, derived } => write!(
                f,
                "mutation classification drift: expected mutating={expected}, derived \
                 mutating={derived}"
            ),
            DiagnosticKind::DivisionByZero { denominator } => {
                write!(f, "division by literal zero: {denominator}")
            }
            DiagnosticKind::UnprovenDivisor { denominator } => {
                write!(f, "denominator not provably non-zero: {denominator}")
            }
            DiagnosticKind::NonFiniteLiteral { literal } => {
                write!(f, "non-finite literal: {literal}")
            }
            DiagnosticKind::NonSteadyState { detail } => {
                write!(f, "iteration span is not a fixpoint: {detail}")
            }
        }
    }
}

/// One finding, positioned in the script.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// What was found.
    pub kind: DiagnosticKind,
    /// Index of the statement it anchors to, if any.
    pub stmt: Option<usize>,
    /// Purpose label of that statement.
    pub purpose: String,
    /// Byte offset within the statement's SQL, when locatable.
    pub pos: Option<usize>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.severity {
            Severity::Warning => f.write_str("warning: ")?,
            Severity::Error => f.write_str("error: ")?,
        }
        write!(f, "{}", self.kind)?;
        if let Some(i) = self.stmt {
            write!(f, " [stmt {i} `{}`", self.purpose)?;
            if let Some(p) = self.pos {
                write!(f, ", byte {p}")?;
            }
            f.write_str("]")?;
        }
        Ok(())
    }
}

/// Per-statement derived facts.
#[derive(Debug, Clone)]
pub struct StmtReport {
    /// Statement index in the script.
    pub index: usize,
    /// Purpose label.
    pub purpose: String,
    /// SQL text length in bytes.
    pub bytes: usize,
    /// Leaf terms measured by the analyzer (0 when analysis failed).
    pub terms: usize,
    /// Derived mutation flag.
    pub mutating: bool,
    /// Driver scans `(table, symbolic rows)` this statement performs.
    pub scans: Vec<(String, Card)>,
    /// Symbolic output cardinality, for row-producing statements.
    pub output_rows: Option<Card>,
}

/// One driver scan inside the iteration span.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedScan {
    /// Statement index (within the whole script).
    pub stmt: usize,
    /// Purpose label of that statement.
    pub purpose: String,
    /// Scanned table.
    pub table: String,
    /// Symbolic rows scanned.
    pub rows: Card,
}

/// The per-iteration cost derivation, valid only when `steady`.
#[derive(Debug, Clone)]
pub struct IterationDerivation {
    /// Did the replay reach a fixpoint (second replay identical to the
    /// first, state and scans both)?
    pub steady: bool,
    /// Driver scans of one steady-state iteration, in order.
    pub scans: Vec<DerivedScan>,
}

/// Everything the static analysis derived about one script.
#[derive(Debug, Clone)]
pub struct ScriptReport {
    /// Per-statement facts, one per [`ScriptSpec::statements`] entry.
    pub statements: Vec<StmtReport>,
    /// All findings, in script order.
    pub diagnostics: Vec<Diagnostic>,
    /// Steady-state iteration derivation, when a span was declared.
    pub iteration: Option<IterationDerivation>,
}

impl ScriptReport {
    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// No error-severity findings?
    pub fn ok(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Deterministic human-readable rendering (used by golden
    /// snapshots and the CLI `analyze` subcommand).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "statements: {}", self.statements.len());
        for s in &self.statements {
            let flag = if s.mutating { "M" } else { "-" };
            let _ = write!(
                out,
                "[{:>3}] {:<12} {flag} {:>6}B {:>5}t",
                s.index, s.purpose, s.bytes, s.terms
            );
            if !s.scans.is_empty() {
                let scans: Vec<String> = s.scans.iter().map(|(t, c)| format!("{t}={c}")).collect();
                let _ = write!(out, "  scan {}", scans.join(", "));
            }
            if let Some(rows) = &s.output_rows {
                let _ = write!(out, "  out {rows}");
            }
            out.push('\n');
        }
        if let Some(iter) = &self.iteration {
            let _ = writeln!(
                out,
                "iteration: {}",
                if iter.steady {
                    "steady state proven"
                } else {
                    "NOT steady"
                }
            );
            for ev in &iter.scans {
                let _ = writeln!(
                    out,
                    "  [{:>3}] {:<12} scan {} ({})",
                    ev.stmt, ev.purpose, ev.table, ev.rows
                );
            }
        }
        let _ = writeln!(out, "diagnostics: {}", self.diagnostics.len());
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

/// Byte offset of identifier `ident` in `sql` (case-insensitive,
/// word-boundary match), for positioning diagnostics.
pub(crate) fn find_ident_pos(sql: &str, ident: &str) -> Option<usize> {
    if ident.is_empty() {
        return None;
    }
    let hay = sql.to_ascii_lowercase();
    let needle = ident.to_ascii_lowercase();
    let bytes = hay.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(off) = hay[start..].find(&needle) {
        let i = start + off;
        let end = i + needle.len();
        let before_ok = i == 0 || !is_ident(bytes[i - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(i);
        }
        start = i + 1;
    }
    None
}

/// Check a whole script statically. Never executes anything.
pub fn check_script(spec: &ScriptSpec, env: &CheckEnv) -> ScriptReport {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Parse every statement up front; lifecycle analysis needs the
    // whole script at once.
    let mut parsed: Vec<Vec<Statement>> = Vec::with_capacity(spec.statements.len());
    for (i, s) in spec.statements.iter().enumerate() {
        if env.max_statement_len > 0 && s.sql.len() > env.max_statement_len {
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                kind: DiagnosticKind::TooLong {
                    len: s.sql.len(),
                    max: env.max_statement_len,
                },
                stmt: Some(i),
                purpose: s.purpose.clone(),
                pos: Some(env.max_statement_len),
            });
            // Still parsed and interpreted: an oversized statement is a
            // capacity problem, not a semantic one.
        }
        match parser::parse(&s.sql) {
            Ok(stmts) => parsed.push(stmts),
            Err(e) => {
                let (pos, message) = match e {
                    Error::Lex { pos, message } | Error::Parse { pos, message } => {
                        (Some(pos), message)
                    }
                    other => (None, other.to_string()),
                };
                diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    kind: DiagnosticKind::Parse(message),
                    stmt: Some(i),
                    purpose: s.purpose.clone(),
                    pos,
                });
                parsed.push(Vec::new());
            }
        }
    }

    // Lifecycle pass over the whole script.
    let preexisting: BTreeSet<String> = env.catalog.tables().map(|(n, _)| n.to_string()).collect();
    diagnostics.extend(lifecycle::check(
        &parsed,
        &spec.statements,
        &preexisting,
        &spec.persistent_prefixes,
    ));

    // Main walk: thread catalog + symbolic state through the script.
    let mut catalog = env.catalog.clone();
    let mut state = SymState::new();
    let mut statements: Vec<StmtReport> = Vec::with_capacity(spec.statements.len());
    // Statement indexes whose analysis succeeded — the only ones the
    // steady-state replay re-executes.
    let mut analyzed_ok: Vec<bool> = vec![false; spec.statements.len()];

    let mut iteration: Option<IterationDerivation> = None;
    for (i, script_stmt) in spec.statements.iter().enumerate() {
        // The steady-state replay runs the moment the main walk leaves
        // the iteration span — before cleanup statements tear the work
        // tables down.
        if spec.iteration.as_ref().is_some_and(|span| span.end == i) {
            let span = spec.iteration.clone().unwrap();
            iteration = Some(derive_iteration(
                &span,
                &parsed,
                &analyzed_ok,
                spec,
                &mut state,
                &mut catalog,
                &mut diagnostics,
            ));
        }
        for (_, load) in spec.loads.iter().filter(|(at, _)| *at == i) {
            state.load(&load.table, load.rows.clone(), &load.distinct);
        }
        let mut report = StmtReport {
            index: i,
            purpose: script_stmt.purpose.clone(),
            bytes: script_stmt.sql.len(),
            terms: 0,
            mutating: false,
            scans: Vec::new(),
            output_rows: None,
        };
        let mut ok = !parsed[i].is_empty();
        for stmt in &parsed[i] {
            report.mutating |= crate::engine::is_mutating(stmt);

            // Expression safety lints. The same denominator repeated
            // across adjacent select items (one per dimension/cluster)
            // reports once.
            let mut hits = Vec::new();
            lints::check(stmt, &mut hits);
            hits.dedup();
            for hit in hits {
                diagnostics.push(Diagnostic {
                    severity: hit.kind.severity(),
                    kind: hit.kind,
                    stmt: Some(i),
                    purpose: script_stmt.purpose.clone(),
                    pos: hit
                        .token
                        .as_deref()
                        .and_then(|t| find_ident_pos(&script_stmt.sql, t)),
                });
            }

            // Semantic analysis + DDL replay. On failure, retry with
            // unbounded limits so DDL effects still apply — otherwise a
            // single over-limit CREATE cascades into bogus
            // unknown-table errors downstream.
            let analysis = catalog.apply(stmt, &env.limits).or_else(|e| {
                let e = e.locate(&script_stmt.sql);
                diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    pos: e.pos,
                    kind: DiagnosticKind::Semantic(e),
                    stmt: Some(i),
                    purpose: script_stmt.purpose.clone(),
                });
                catalog.apply(stmt, &Limits::unbounded())
            });
            ok &= analysis.is_ok();
            let plan = analysis.ok().map(|rep| {
                report.terms = report.terms.max(rep.complexity.terms);
                rep.plan
            });

            // Abstract interpretation: scans + state transfer.
            let effect = state.apply(stmt, plan.as_ref());
            report.scans.extend(effect.scans);
            if effect.output_rows.is_some() {
                report.output_rows = effect.output_rows;
            }
        }
        if let Some(exp) = script_stmt.expected_mutating {
            if exp != report.mutating {
                diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    kind: DiagnosticKind::MutationMismatch {
                        expected: exp,
                        derived: report.mutating,
                    },
                    stmt: Some(i),
                    purpose: script_stmt.purpose.clone(),
                    pos: Some(0),
                });
            }
        }
        analyzed_ok[i] = ok;
        statements.push(report);
    }

    // A span ending exactly at the script's end never hit the in-loop
    // trigger; replay it now.
    if iteration.is_none() {
        if let Some(span) = spec.iteration.clone() {
            iteration = Some(derive_iteration(
                &span,
                &parsed,
                &analyzed_ok,
                spec,
                &mut state,
                &mut catalog,
                &mut diagnostics,
            ));
        }
    }

    ScriptReport {
        statements,
        diagnostics,
        iteration,
    }
}

/// Steady-state proof: replay the iteration span twice on the current
/// state. The main walk already executed it once (warm-up); if replay B
/// and replay C agree on both the resulting state and the scan
/// sequence, every later iteration repeats replay C exactly — that is
/// the per-iteration derivation. Disagreement is a
/// [`DiagnosticKind::NonSteadyState`] error.
#[allow(clippy::too_many_arguments)]
fn derive_iteration(
    span: &Range<usize>,
    parsed: &[Vec<Statement>],
    analyzed_ok: &[bool],
    spec: &ScriptSpec,
    state: &mut SymState,
    catalog: &mut SymbolicCatalog,
    diagnostics: &mut Vec<Diagnostic>,
) -> IterationDerivation {
    let replay = |state: &mut SymState, catalog: &mut SymbolicCatalog| -> Vec<DerivedScan> {
        let mut scans = Vec::new();
        for i in span.clone() {
            if !analyzed_ok.get(i).copied().unwrap_or(false) {
                continue;
            }
            for stmt in &parsed[i] {
                // DDL must replay for schema coherence; everything else
                // was analyzed (and its errors reported) in the main walk
                // and leaves the catalog alone.
                if matches!(
                    stmt,
                    Statement::CreateTable { .. } | Statement::DropTable { .. }
                ) {
                    let _ = catalog.apply(stmt, &Limits::unbounded());
                }
                let effect = state.apply(stmt, plan_statement(catalog, stmt).ok().as_ref());
                for (table, rows) in effect.scans {
                    scans.push(DerivedScan {
                        stmt: i,
                        purpose: spec.statements[i].purpose.clone(),
                        table,
                        rows,
                    });
                }
            }
        }
        scans
    };
    let scans_b = replay(state, catalog);
    let state_b = state.clone();
    let scans_c = replay(state, catalog);
    let steady = state_b == *state && scans_b == scans_c;
    if !steady {
        let detail = if scans_b != scans_c {
            "scan sequence differs between consecutive iterations".to_string()
        } else {
            "table cardinalities keep growing across iterations".to_string()
        };
        diagnostics.push(Diagnostic {
            severity: Severity::Error,
            kind: DiagnosticKind::NonSteadyState { detail },
            stmt: Some(span.start),
            purpose: spec
                .statements
                .get(span.start)
                .map(|s| s.purpose.clone())
                .unwrap_or_default(),
            pos: None,
        });
    }
    IterationDerivation {
        steady,
        scans: scans_c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmts(list: &[(&str, &str)]) -> Vec<ScriptStmt> {
        list.iter().map(|(p, s)| ScriptStmt::new(*p, *s)).collect()
    }

    #[test]
    fn clean_script_with_cleanup_passes() {
        let spec = ScriptSpec {
            statements: stmts(&[
                (
                    "create:t",
                    "CREATE TABLE t (a BIGINT PRIMARY KEY, b DOUBLE)",
                ),
                ("fill", "INSERT INTO t VALUES (1, 2.0), (2, 3.0)"),
                ("read", "SELECT sum(b) FROM t"),
                ("drop:t", "DROP TABLE t"),
            ]),
            ..ScriptSpec::default()
        };
        let report = check_script(&spec, &CheckEnv::default());
        assert!(report.ok(), "unexpected findings: {:?}", report.diagnostics);
        assert!(report.statements[2].scans[0].1 == Card::constant(2));
        assert!(!report.statements[2].mutating);
        assert!(report.statements[1].mutating);
    }

    #[test]
    fn leaked_table_and_read_after_drop_are_errors() {
        let spec = ScriptSpec {
            statements: stmts(&[
                ("create:t", "CREATE TABLE t (a BIGINT)"),
                ("create:u", "CREATE TABLE u (a BIGINT)"),
                ("drop:u", "DROP TABLE u"),
                ("read", "SELECT a FROM u"),
            ]),
            ..ScriptSpec::default()
        };
        let report = check_script(&spec, &CheckEnv::default());
        let kinds: Vec<&DiagnosticKind> = report.errors().map(|d| &d.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, DiagnosticKind::WorkTableLeak { table } if table == "t")));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, DiagnosticKind::ReadAfterDrop { table } if table == "u")));
    }

    #[test]
    fn persistent_prefix_exempts_checkpoints_from_leaks() {
        let spec = ScriptSpec {
            statements: stmts(&[("create:ckptc", "CREATE TABLE ckptc (a BIGINT)")]),
            persistent_prefixes: vec!["ckpt".into()],
            ..ScriptSpec::default()
        };
        assert!(check_script(&spec, &CheckEnv::default()).ok());
    }

    #[test]
    fn iteration_replay_proves_fixpoint_for_delete_insert_cycle() {
        let n = Card::n();
        let spec = ScriptSpec {
            statements: stmts(&[
                (
                    "create:z",
                    "CREATE TABLE z (rid BIGINT PRIMARY KEY, y1 DOUBLE)",
                ),
                (
                    "create:d",
                    "CREATE TABLE d (rid BIGINT PRIMARY KEY, v DOUBLE)",
                ),
                ("e:clear", "DELETE FROM d"),
                ("e:fill", "INSERT INTO d SELECT rid, y1 * 2.0 FROM z"),
                ("drop:d", "DROP TABLE d"),
                ("drop:z", "DROP TABLE z"),
            ]),
            loads: vec![(
                2,
                TableLoad {
                    table: "z".into(),
                    rows: n.clone(),
                    distinct: vec![("rid".into(), n.clone())],
                },
            )],
            iteration: Some(2..4),
            ..ScriptSpec::default()
        };
        let report = check_script(&spec, &CheckEnv::default());
        assert!(report.ok(), "unexpected findings: {:?}", report.diagnostics);
        let iter = report.iteration.as_ref().unwrap();
        assert!(iter.steady);
        // One steady iteration: DELETE scans d (n rows), INSERT scans z.
        assert_eq!(iter.scans.len(), 2);
        assert_eq!(iter.scans[0].table, "d");
        assert_eq!(iter.scans[0].rows, n);
        assert_eq!(iter.scans[1].table, "z");
        assert_eq!(iter.scans[1].rows, n);
    }

    #[test]
    fn growing_iteration_span_is_rejected_as_non_steady() {
        let spec = ScriptSpec {
            statements: stmts(&[
                ("create:t", "CREATE TABLE t (a BIGINT)"),
                ("grow", "INSERT INTO t VALUES (1)"),
                ("drop:t", "DROP TABLE t"),
            ]),
            iteration: Some(1..2),
            ..ScriptSpec::default()
        };
        let report = check_script(&spec, &CheckEnv::default());
        assert!(!report.iteration.as_ref().unwrap().steady);
        assert!(report
            .errors()
            .any(|d| matches!(d.kind, DiagnosticKind::NonSteadyState { .. })));
    }

    #[test]
    fn oversized_statement_reports_too_long_but_still_interprets() {
        let spec = ScriptSpec {
            statements: stmts(&[
                ("create:t", "CREATE TABLE t (a BIGINT)"),
                ("fill", "INSERT INTO t VALUES (1), (2), (3)"),
                ("drop:t", "DROP TABLE t"),
            ]),
            ..ScriptSpec::default()
        };
        let env = CheckEnv {
            max_statement_len: 30,
            ..CheckEnv::default()
        };
        let report = check_script(&spec, &env);
        assert!(report
            .errors()
            .any(|d| matches!(d.kind, DiagnosticKind::TooLong { len: 34, max: 30 })));
        // The statement was still interpreted: t received 3 rows.
        assert_eq!(report.statements[1].output_rows, Some(Card::constant(3)));
    }

    #[test]
    fn semantic_error_is_positioned_and_reported() {
        let spec = ScriptSpec {
            statements: stmts(&[("read", "SELECT a FROM missing")]),
            ..ScriptSpec::default()
        };
        let report = check_script(&spec, &CheckEnv::default());
        let diag = report.errors().next().unwrap();
        assert!(matches!(diag.kind, DiagnosticKind::Semantic(_)));
        assert_eq!(diag.pos, Some(14));
    }

    #[test]
    fn find_ident_pos_respects_word_boundaries() {
        assert_eq!(find_ident_pos("SELECT a FROM yd", "y"), None);
        assert_eq!(find_ident_pos("SELECT a FROM yd", "yd"), Some(14));
        assert_eq!(find_ident_pos("DROP TABLE IF EXISTS T2", "t2"), Some(21));
        assert_eq!(find_ident_pos("SELECT 1", "t"), None);
    }
}
