//! Table lifecycle analysis over a linear script.
//!
//! Each table moves through `absent → created → dropped`; this pass
//! walks the whole script once and flags the transitions that indicate
//! generator bugs:
//!
//! * **work-table leak** — created by the script, still live at the
//!   end (a failed cleanup section, or none at all);
//! * **use-before-create** — referenced at index `i`, created only at
//!   some `j > i` (a statement-ordering bug);
//! * **read-after-drop** — referenced after its `DROP TABLE`;
//! * **double-create** — plain `CREATE TABLE` over a live table.
//!
//! Tables matching a declared persistent prefix (SQLEM's `ckpt`
//! checkpoint table) are exempt from leak detection: surviving the
//! session is their whole point.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::Statement;
use crate::exec::statement_tables;

use super::{find_ident_pos, Diagnostic, DiagnosticKind, ScriptStmt};

/// Lifecycle state of one table during the walk.
enum State {
    /// Live; `Some(i)` when statement `i` of this script created it.
    Live(Option<usize>),
    /// Dropped by an earlier statement.
    Dropped,
}

/// Run the lifecycle pass. `parsed[i]` holds the parsed statements of
/// `stmts[i]` (empty when parsing failed — those are reported
/// elsewhere); `preexisting` are tables live before the script runs.
pub(super) fn check(
    parsed: &[Vec<Statement>],
    stmts: &[ScriptStmt],
    preexisting: &BTreeSet<String>,
    persistent_prefixes: &[String],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // First creation index per table, for use-before-create.
    let mut creates: BTreeMap<String, usize> = BTreeMap::new();
    for (i, group) in parsed.iter().enumerate() {
        for stmt in group {
            if let Statement::CreateTable { name, .. } = stmt {
                creates.entry(name.to_ascii_lowercase()).or_insert(i);
            }
        }
    }

    let mut state: BTreeMap<String, State> = preexisting
        .iter()
        .map(|t| (t.clone(), State::Live(None)))
        .collect();

    for (i, group) in parsed.iter().enumerate() {
        let script_stmt = &stmts[i];
        let diag = |kind: DiagnosticKind, table: &str| Diagnostic {
            severity: kind.severity(),
            kind,
            stmt: Some(i),
            purpose: script_stmt.purpose.clone(),
            pos: find_ident_pos(&script_stmt.sql, table),
        };
        for stmt in group {
            // The tables it reads or writes: a DDL target is this pass's
            // own transition, and plain EXPLAIN never touches data
            // (EXPLAIN ANALYZE runs its statement).
            let mut touched = stmt;
            while let Statement::ExplainAnalyze(inner) = touched {
                touched = inner;
            }
            let used = match touched {
                Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::Explain(_) => Vec::new(),
                _ => statement_tables(touched),
            };
            for t in used {
                match state.get(&t) {
                    Some(State::Live(_)) => {}
                    Some(State::Dropped) => {
                        diags.push(diag(DiagnosticKind::ReadAfterDrop { table: t.clone() }, &t));
                    }
                    None => {
                        // Only a lifecycle problem when the script does
                        // create it, later; a table that never exists is
                        // a plain unknown-table semantic error.
                        if creates.get(&t).is_some_and(|&j| j > i) {
                            diags.push(diag(
                                DiagnosticKind::UseBeforeCreate { table: t.clone() },
                                &t,
                            ));
                        }
                    }
                }
            }
            match stmt {
                Statement::CreateTable {
                    name,
                    if_not_exists,
                    ..
                } => {
                    let t = name.to_ascii_lowercase();
                    match state.get(&t) {
                        Some(State::Live(_)) if !*if_not_exists => {
                            diags.push(diag(DiagnosticKind::DoubleCreate { table: t.clone() }, &t));
                        }
                        Some(State::Live(_)) => {}
                        _ => {
                            state.insert(t, State::Live(Some(i)));
                        }
                    }
                }
                Statement::DropTable { name, .. } => {
                    state.insert(name.to_ascii_lowercase(), State::Dropped);
                }
                _ => {}
            }
        }
    }

    // Anything the script created and left live at the end is a leak,
    // unless it is declared persistent.
    for (t, s) in &state {
        if let State::Live(Some(created_at)) = s {
            if persistent_prefixes
                .iter()
                .any(|p| t.starts_with(p.as_str()))
            {
                continue;
            }
            let script_stmt = &stmts[*created_at];
            diags.push(Diagnostic {
                severity: DiagnosticKind::WorkTableLeak { table: t.clone() }.severity(),
                kind: DiagnosticKind::WorkTableLeak { table: t.clone() },
                stmt: Some(*created_at),
                purpose: script_stmt.purpose.clone(),
                pos: find_ident_pos(&script_stmt.sql, t),
            });
        }
    }
    diags
}
